"""Projective null-vector model of the boundary and its Moebius maps.

Points of the boundary sphere are null lines of a Hermitian form of
signature (k, 1) on C^(k+1).  The form is written with two isotropic
coordinate directions (indices 0 and k),

    <X, Y> = X_0 conj(Y_k) + X_k conj(Y_0) + sum_{1 <= i <= k-1} X_i conj(Y_i),

so both the infinite point (direction e_0) and the chart origin
(direction e_k) are coordinate axes and no construction needs to
special-case infinity.  Form-preserving matrices act on the boundary and
preserve all cross-ratio triples; the generators below realize the chart
automorphisms: Heisenberg translations, horizontal rotations, dilations
and the gauge inversion.

The chart embedding sends a finite point (z, t) to the null direction

    lift(z, t) ~ ((-|z|^2 + i t)/2, z, 1),

calibrated so that dist(p, q)^2 = 2 |<X_p, X_q>| for lifts normalized
against the lift of infinity.  The constant 2 is pinned by the vertical,
unit-horizontal and translated-horizontal anchor distances; see
``distance_pairing_constant``.

Kernel contract: the scalar primitives (``lift``, ``drop``, ``herm`` and
``core._norm``) run on every point a Moebius map moves, so they avoid
numpy's Python-level wrappers, but they keep numpy's array arithmetic: each
performs the same floating-point operations in the same order as the
``np.linalg.norm``/``np.sum``/``np.conj`` expressions it replaces, and
refactors leave verification reports bit-identical.  Python ``complex``
arithmetic or BLAS ``dot``/``vdot`` in their place would round
differently in the last bit.  Python scalars are used only where a value
is compared with a tolerance and goes no further (the tests in ``drop``).
A point keeps its lift once computed.

The stacked forms (``lift_stack``, ``act_stack``, ``drop_stack``,
``herm_stack`` and the generator stacks) hold the same contract row by
row, as those of :mod:`chgeom.core` do, and reduce rows with its helpers
(``np.vecdot``, ``_norm_rows``, ``_modulus``, ``_pow``; see "Stacked
forms" there).  A test pins each one to its scalar twin bit for bit.  The
map action is ``G @ X[..., None]``, which rounds as ``g @ x`` (``einsum``
does not).  Where the twin multiplies numpy complex scalars or does
Python complex arithmetic, the real-part arithmetic is spelled out, since
numpy's vector complex product fuses multiply and add.  Complex division
stays a vector loop.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import (
    _COMPLEX,
    BoundaryPoint,
    GeometryError,
    _modulus,
    _norm,
    _norm_rows,
    dist,
    infinity,
    origin,
    point,
    CrossRatioTriple,
    Points,
    is_admissible,
)


__all__ = [
    "NullVector",
    "MoebiusMap",
    "form_matrix",
    "herm",
    "lift",
    "drop",
    "chart",
    "make_translation",
    "make_rotation",
    "make_dilation",
    "make_inversion",
    "axis_reflection",
    "crt_projective",
    "distance_pairing_constant",
    "lift_stack",
    "act_stack",
    "map_points",
    "drop_stack",
    "herm_stack",
    "translation_stack",
    "rotation_stack",
    "dilation_stack",
]

# A null vector is a plain complex ndarray of shape (k+1,), unit Euclidean
# norm by convention, considered up to complex scale.
NullVector = np.ndarray

NULL_TOL = 1e-6
# Last coordinates at roundoff level mark the direction of infinity.
INFINITY_SLICE_TOL = 1e-13
# A finite reading whose chart-rescaled null relation is violated worse
# than this is noise around the direction of infinity, not a point.
FINITE_CONSISTENCY_TOL = 1e-6


@lru_cache(maxsize=None)
def form_matrix(k: int) -> np.ndarray:
    """Matrix H of the signature-(k,1) Hermitian form, with H^2 = I."""
    H = np.zeros((k + 1, k + 1), dtype=complex)
    H[0, k] = 1.0
    H[k, 0] = 1.0
    for i in range(1, k):
        H[i, i] = 1.0
    H.setflags(write=False)
    return H


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """Read-only complex identity of size n; ``.copy()`` it to build on it."""
    I = np.eye(n, dtype=complex)
    I.setflags(write=False)
    return I


def _unit_direction(rng: np.random.Generator, m: int) -> np.ndarray:
    """A uniformly distributed unit vector of C^m, from one complex Gaussian draw."""
    d = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return d / _norm(d)


def _uniform(rng: np.random.Generator, low=0.0, high=1.0, size=None):
    """``rng.uniform(low, high, size)``, bit for bit and from the same stream.

    numpy returns ``low + (high - low) * rng.random()`` for each entry; this
    skips its argument handling, which costs three times the draw.
    """
    return low + (high - low) * rng.random(size)


def herm(X: np.ndarray, Y: np.ndarray) -> complex:
    """Hermitian pairing <X, Y>, antilinear in the second argument."""
    k = X.shape[0] - 1
    Yc = Y.conj()
    middle = complex((X[1:k] * Yc[1:k]).sum()) if k > 1 else 0.0
    return X[0] * Yc[k] + X[k] * Yc[0] + middle


def _affine_lift(p: BoundaryPoint) -> np.ndarray:
    if p.infinite:
        X = np.zeros(p.k + 1, dtype=complex)
        X[0] = 1.0
        return X
    zz = complex(np.vdot(p.z, p.z)).real
    return np.array([0.5 * (-zz + 1j * p.t), *p.z.tolist(), 1.0], dtype=complex)


def lift(p: BoundaryPoint) -> NullVector:
    """Unit-norm null vector representing ``p``; lift of infinity is e_0.

    Points are immutable, so the lift is computed once per point and kept
    in its instance dict, as ``functools.cached_property`` would; the
    returned array is read-only.
    """
    X = p.__dict__.get("_lift")
    if X is None:
        X = _affine_lift(p)
        X = X / _norm(X)
        X.flags.writeable = False
        p.__dict__["_lift"] = X
    return X


def drop(X: NullVector) -> BoundaryPoint:
    """Boundary point of a null direction; inverse of :func:`lift`.

    Raises for vectors that are not null within tolerance, and for
    vectors with an infinite or NaN entry (or a norm that overflows).  A
    direction is the infinite point when its last coordinate sits at
    roundoff level, or when reading it as finite contradicts the null
    relation Re(X_0/X_k) = -|z|^2/2 rescaled to the chart (a roundoff-size
    null defect explodes under division by a near-zero last coordinate,
    which is exactly the signature of a blurred image of infinity).

    The tests only compare against tolerances, so they run on Python
    scalars; the chart coordinates are numpy's quotients X_i / X_k.
    """
    if not (type(X) is np.ndarray and X.dtype is _COMPLEX):
        X = np.asarray(X, dtype=complex)
    if X.ndim != 1:
        raise GeometryError(f"a null vector is 1-d, got shape {X.shape}")
    k = X.shape[0] - 1
    x = X.tolist()
    x0, xk = x[0], x[k]
    middle = 0.0
    for c in x[1:k]:
        middle += c.real * c.real + c.imag * c.imag
    nn = x0.real * x0.real + x0.imag * x0.imag + xk.real * xk.real + xk.imag * xk.imag + middle
    if not math.isfinite(nn):
        raise GeometryError("non-finite vector does not define a boundary point")
    if not nn > 0:
        raise GeometryError("zero vector does not define a boundary point")
    # <X, X> = 2 Re(X_0 conj(X_k)) + sum |X_i|^2
    if abs(2.0 * (x0.real * xk.real + x0.imag * xk.imag) + middle) > NULL_TOL * nn:
        raise GeometryError("vector is not null within tolerance")
    if abs(xk) <= INFINITY_SLICE_TOL * math.sqrt(nn):
        return infinity(k)
    q = X[:k] / X[k]
    w, *z = q.tolist()
    zz = 0.0
    for c in z:
        zz += c.real * c.real + c.imag * c.imag
    if abs(w.real + 0.5 * zz) > FINITE_CONSISTENCY_TOL * (1.0 + abs(w)):
        return infinity(k)
    # coordinates are finite by the checks above; skip point() validation
    return BoundaryPoint(z=q[1:], t=2.0 * w.imag)


class MoebiusMap:
    """A form-preserving matrix acting on the boundary.

    Composition is ``@``; the inverse uses the form (g^-1 = H g* H) and is
    therefore as accurate as the form preservation of ``g`` itself.
    Products are not projected back onto the form group: their drift
    grows only at roundoff rate, and ``form_preservation_drift`` measures
    it.
    """

    __slots__ = ("g",)

    def __init__(self, g: np.ndarray, *, check: bool = True):
        if not (type(g) is np.ndarray and g.dtype is _COMPLEX):
            g = np.asarray(g, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise GeometryError("a Moebius map needs a square matrix")
        self.g = g
        if check and not self.form_residual() <= 1e-6:  # NaN fails too
            raise GeometryError("matrix does not preserve the Hermitian form")

    @property
    def k(self) -> int:
        return self.g.shape[0] - 1

    @classmethod
    def identity(cls, k: int) -> "MoebiusMap":
        return cls(_identity(k + 1).copy(), check=False)

    def form_residual(self) -> float:
        """Deviation from form preservation, relative to the matrix scale.

        Form-preserving matrices can have large entries (high powers of
        dilations do), so the drift of g* H g from H is measured against
        the squared entry scale of g.
        """
        H = form_matrix(self.k)
        drift = float(np.max(np.abs(self.g.conj().T @ H @ self.g - H)))
        scale = max(1.0, float(np.max(np.abs(self.g))) ** 2)
        return drift / scale

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(self.g @ other.g, check=False)

    def inverse(self) -> "MoebiusMap":
        H = form_matrix(self.k)
        return MoebiusMap(H @ self.g.conj().T @ H, check=False)

    def __call__(self, p: BoundaryPoint) -> BoundaryPoint:
        return drop(self.g @ lift(p))

    def __repr__(self) -> str:
        return f"MoebiusMap(k={self.k}, form_residual={self.form_residual():.2e})"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def make_translation(z0, t0: float) -> MoebiusMap:
    """Left Heisenberg translation by (z0, t0); fixes infinity."""
    if not (type(z0) is np.ndarray and z0.ndim == 1 and z0.dtype is _COMPLEX):
        z0 = np.atleast_1d(np.asarray(z0, dtype=complex)).reshape(-1)
    k = z0.shape[0] + 1
    zz = complex(np.vdot(z0, z0)).real
    if not (math.isfinite(zz) and math.isfinite(t0)):
        raise GeometryError(f"translation needs finite data, got z0={z0}, t0={t0}")
    g = _identity(k + 1).copy()
    g[0, 1:k] = -np.conj(z0)
    g[0, k] = 0.5 * (-zz + 1j * float(t0))
    g[1:k, k] = z0
    return MoebiusMap(g, check=False)


def make_rotation(U) -> MoebiusMap:
    """Horizontal rotation (z, t) -> (U z, t) for unitary U of size k-1."""
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise GeometryError("rotation needs a square unitary matrix")
    m = U.shape[0]
    if m and not np.max(np.abs(U.conj().T @ U - _identity(m))) <= 1e-10:
        raise GeometryError("rotation matrix is not unitary")
    g = _identity(m + 2).copy()
    g[1 : m + 1, 1 : m + 1] = U
    return MoebiusMap(g, check=False)


def make_dilation(lam: float, k: int) -> MoebiusMap:
    """Dilation (z, t) -> (lam z, lam^2 t), fixing the origin and infinity."""
    if k < 1:
        raise GeometryError(f"complex dimension must be >= 1, got {k}")
    inv = 1.0 / lam if lam > 0 else math.inf
    if not (lam < math.inf and inv < math.inf):
        raise GeometryError("dilation coefficient must be positive and finite, "
                            f"with a finite reciprocal, got {lam}")
    g = _identity(k + 1).copy()
    g[0, 0] = lam
    g[k, k] = inv
    return MoebiusMap(g, check=False)


@lru_cache(maxsize=None)
def make_inversion(k: int) -> MoebiusMap:
    """Gauge inversion swapping the origin and infinity.

    Satisfies d(ip, iq) gauge(p) gauge(q) = d(p, q), the metric-inversion
    contract at the origin, and maps the gauge-1 sphere to itself.  One
    shared instance per dimension, with a read-only matrix.
    """
    if k < 1:
        raise GeometryError(f"complex dimension must be >= 1, got {k}")
    g = np.zeros((k + 1, k + 1), dtype=complex)
    # Coordinate swap X_0 <-> X_k inverts with an extra factor 2 in the
    # metric; the dilation by 1/2 folded in here removes it.
    g[0, k] = 0.5
    g[k, 0] = 2.0
    for i in range(1, k):
        g[i, i] = 1.0
    g.setflags(write=False)
    return MoebiusMap(g, check=False)


def chart(omega: BoundaryPoint, o: BoundaryPoint | None = None) -> MoebiusMap:
    """Chart sending omega to infinity and, when given, o to the origin.

    Identity when omega is already infinite, otherwise the gauge
    inversion after translating omega to the origin; then the
    translation carrying the image of o to the origin.
    """
    if omega.infinite:
        n = MoebiusMap.identity(omega.k)
    else:  # translation by the group inverse of omega
        n = make_inversion(omega.k) @ make_translation(-omega.z, -omega.t)
    if o is None:
        return n
    o1 = n(o)
    if o1.infinite:
        raise GeometryError("chart anchor collides with omega")
    return make_translation(-o1.z, -o1.t) @ n


def axis_reflection(k: int) -> MoebiusMap:
    """Chart reflection (z, t) -> (-z, t), fixing the vertical chain."""
    d = np.ones(k + 1, dtype=complex)
    d[1:k] = -1.0
    return MoebiusMap(np.diag(d), check=False)


# ---------------------------------------------------------------------------
# Cross-ratio triple in the projective model
# ---------------------------------------------------------------------------

def crt_projective(x: BoundaryPoint, y: BoundaryPoint, z: BoundaryPoint,
                   u: BoundaryPoint) -> CrossRatioTriple:
    """Cross-ratio triple from Hermitian pairings of unit null lifts.

    Independent route to the chart computation in :mod:`chgeom.core`; the
    two must agree on all admissible quadruples.
    """
    if not is_admissible((x, y, z, u)):
        raise GeometryError("quadruple is not admissible (an entry repeats 3+ times)")
    Xs = [lift(p) for p in (x, y, z, u)]
    return CrossRatioTriple.from_pairings(
        [abs(herm(Xs[i], Xs[j])) for i, j in combinations(range(4), 2)])


@lru_cache(maxsize=None)
def distance_pairing_constant(k: int) -> float:
    """Calibration constant c0 in dist^2 = c0 |<X_p, X_q>| / (|<X_p, W>| |<X_q, W>|).

    Computed from anchor pairs (vertical, unit horizontal where available)
    and checked to be mutually consistent; equals 2 in this model for
    every k.  Cached per k.
    """
    W = lift(infinity(k))
    anchors = [(origin(k), point(np.zeros(k - 1), 4.0))]
    if k >= 2:
        e1 = np.zeros(k - 1, dtype=complex)
        e1[0] = 1.0
        anchors.append((origin(k), point(e1, 0.0)))
        anchors.append((point(e1, 0.0), point(2 * e1, 0.0)))
    values = []
    for p, q in anchors:
        Xp, Xq = lift(p), lift(q)
        denom = abs(herm(Xp, W)) * abs(herm(Xq, W))
        values.append(dist(p, q) ** 2 * denom / abs(herm(Xp, Xq)))
    c0 = values[0]
    if any(abs(v - c0) > 1e-12 * c0 for v in values):
        raise GeometryError("anchor distances give inconsistent calibration")
    return c0


# ---------------------------------------------------------------------------
# Stacked forms (see the kernel contract above)
# ---------------------------------------------------------------------------

def _half_null(zz: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``0.5 * (-zz + 1j * t)`` entrywise, step for step in Python's complex
    arithmetic, which promotes each float to a complex with imaginary part 0."""
    re1, im1 = 0.0 * t - 0.0, 0.0 + t                        # 1j * t
    re2 = -zz + re1                                          # -zz + ...; 0.0 + im1 is im1
    return _complex(0.5 * re2 - 0.0 * im1, 0.5 * im1 + 0.0 * re2)   # 0.5 * ...


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def lift_stack(P: Points) -> np.ndarray:
    n, m = P.Z.shape
    X = np.zeros((n, m + 2), dtype=complex)
    X[:, 0] = _half_null(np.vecdot(P.Z, P.Z).real, P.T)
    X[:, 1:m + 1] = P.Z
    X[:, m + 1] = 1.0
    X[P.inf] = 0.0
    X[P.inf, 0] = 1.0
    return X / _norm_rows(X)[:, None]


def act_stack(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Each row ``g @ x``, for n matrices ``G`` or one shared."""
    return (G @ X[..., None])[..., 0]


def drop_stack(X: np.ndarray) -> Points:
    """:func:`drop` of the rows of ``X``; raises as ``drop`` does on the first raising row."""
    k = X.shape[1] - 1
    x0, xk = X[:, 0], X[:, k]
    with np.errstate(all="ignore"):
        middle = 0.0
        for j in range(1, k):
            middle = middle + (X[:, j].real * X[:, j].real + X[:, j].imag * X[:, j].imag)
        nn = (x0.real * x0.real + x0.imag * x0.imag + xk.real * xk.real
              + xk.imag * xk.imag + middle)
        defect = np.abs(2.0 * (x0.real * xk.real + x0.imag * xk.imag) + middle)
        raising = ~(np.isfinite(nn) & (nn > 0) & (defect <= NULL_TOL * nn))
        if raising.any():
            drop(X[int(np.argmax(raising))])   # raises, with drop's own message
        inf = _modulus(xk) <= INFINITY_SLICE_TOL * np.sqrt(nn)
        q = X[:, :k] / X[:, k:]
        w, zz = q[:, 0], 0.0
        for j in range(1, k):
            zz = zz + (q[:, j].real * q[:, j].real + q[:, j].imag * q[:, j].imag)
        inf |= (np.abs(w.real + 0.5 * zz)
                > FINITE_CONSISTENCY_TOL * (1.0 + _modulus(w)))
    return Points(np.where(inf[:, None], 0j, q[:, 1:]), np.where(inf, 0.0, 2.0 * w.imag), inf)


def map_points(G: np.ndarray, *stacks: Points) -> list:
    """``MoebiusMap.__call__`` of ``G`` (one matrix or n) on stacks of n points each."""
    n = len(stacks[0].T)
    if G.ndim == 3:
        G = np.concatenate([G] * len(stacks))
    moved = drop_stack(act_stack(G, lift_stack(Points.concat(stacks))))
    return [Points(*(a[j * n:(j + 1) * n] for a in moved)) for j in range(len(stacks))]


def herm_stack(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """:func:`herm` along the last axis; its two corner products are numpy scalar
    products, which do not fuse multiply and add, so they are spelled out."""
    k = X.shape[-1] - 1
    Yc = Y.conj()
    a, b, c, d = X[..., 0], Yc[..., k], X[..., k], Yc[..., 0]
    middle = (X[..., 1:k] * Yc[..., 1:k]).sum(axis=-1) if k > 1 else np.zeros(a.shape, complex)
    return _complex(a.real * b.real - a.imag * b.imag + (c.real * d.real - c.imag * d.imag)
                    + middle.real,
                    a.real * b.imag + a.imag * b.real + (c.real * d.imag + c.imag * d.real)
                    + middle.imag)


def _identity_stack(n: int, size: int) -> np.ndarray:
    return np.broadcast_to(_identity(size), (n, size, size)).copy()


def translation_stack(Z0: np.ndarray, T0: np.ndarray) -> np.ndarray:
    n, m = Z0.shape
    g = _identity_stack(n, m + 2)
    g[:, 0, 1:m + 1] = -np.conj(Z0)
    g[:, 0, m + 1] = _half_null(np.vecdot(Z0, Z0).real, np.asarray(T0, dtype=float))
    g[:, 1:m + 1, m + 1] = Z0
    return g


def rotation_stack(U: np.ndarray) -> np.ndarray:
    n, m = U.shape[:2]
    g = _identity_stack(n, m + 2)
    g[:, 1:m + 1, 1:m + 1] = U
    return g


def dilation_stack(lam: np.ndarray, k: int) -> np.ndarray:
    g = _identity_stack(len(lam), k + 1)
    g[:, 0, 0] = lam
    g[:, k, k] = 1.0 / lam
    return g
