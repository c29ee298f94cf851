"""Heisenberg-chart model of the ideal boundary of complex hyperbolic space.

The boundary sphere of CH^k with one point removed is identified with the
Heisenberg group C^{k-1} x R.  A point carries a horizontal coordinate
``z`` (complex vector of dimension k-1) and a vertical coordinate ``t``;
the removed point is represented by a first-class infinity variant.  The
Koranyi gauge ``(|z|^4 + t^2)^(1/4)`` induces a left-invariant metric on
the group, and adding the infinity point with the usual conventions gives
an extended metric space whose Moebius structure is the object of study.

This module provides the gauge, the extended metric, its inversions
(moving the infinitely remote point), cross-ratio triples of admissible
quadruples, harmonicity, and the Ptolemy defect.  Everything here is a
pure function of immutable values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

__all__ = [
    "GeometryError",
    "SpaceConfig",
    "BoundaryPoint",
    "CrossRatioTriple",
    "point",
    "origin",
    "infinity",
    "heis_mul",
    "heis_inv",
    "gauge",
    "dist",
    "dist_w",
    "Points",
    "dist_stack",
    "dist_w_stack",
    "chordal_sq_stack",
    "crt_stack",
    "triples_from_pairings",
    "harmonicity_residual_stack",
    "ptolemy_defect_stack",
    "pairing",
    "same_point",
    "chordal",
    "chordal_sq",
    "is_admissible",
    "crt",
    "harmonicity_residual",
    "is_harmonic",
    "ptolemy_defect",
    "ptolemy_defect_squared",
]

DEFAULT_TOL = 1e-9

# Points closer than this (in gauge distance) count as equal when checking
# admissibility of quadruples; sampled configurations keep separations at
# least three orders of magnitude above it.
COINCIDENCE_TOL = 1e-12

_COMPLEX = np.dtype(complex)


class GeometryError(ValueError):
    """Raised when an operation is applied outside its geometric domain."""


@dataclass(frozen=True)
class SpaceConfig:
    """Ambient parameters: the complex dimension k.

    The boundary of CH^k has real dimension 2k-1; the horizontal chart
    coordinate lives in C^(k-1), so k = 1 is the degenerate case with no
    horizontal directions at all.
    """

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise GeometryError(f"complex dimension must be >= 1, got {self.k}")


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """A boundary point: finite Heisenberg coordinates (z, t) or infinity.

    ``z`` always has shape (k-1,), also for the infinite point, so every
    point knows the ambient dimension.  Use :func:`same_point` for
    tolerance-aware comparison; componentwise equality is meaningless
    under the gauge metric.
    """

    z: np.ndarray
    t: float
    infinite: bool = False

    @property
    def k(self) -> int:
        return self.z.shape[0] + 1

    def __repr__(self) -> str:
        if self.infinite:
            return f"BoundaryPoint(inf, k={self.k})"
        zs = np.array2string(self.z, precision=6, suppress_small=True)
        return f"BoundaryPoint(z={zs}, t={self.t:.6g})"


def point(z, t: float) -> BoundaryPoint:
    """Finite boundary point with horizontal coordinate ``z`` and height ``t``.

    ``z`` may be a scalar (k = 2), a sequence, or an empty sequence (k = 1).
    """
    if not (type(z) is np.ndarray and z.ndim == 1 and z.dtype is _COMPLEX):
        z = np.atleast_1d(np.asarray(z, dtype=complex)).reshape(-1)
    t = float(t)
    if not (math.isfinite(t) and all(map(cmath.isfinite, z.tolist()))):
        raise GeometryError("finite points need finite coordinates")
    return BoundaryPoint(z=z, t=t)


def _frozen_zeros(n: int) -> np.ndarray:
    z = np.zeros(n, dtype=complex)
    z.flags.writeable = False
    return z


@lru_cache(maxsize=None)
def origin(k: int) -> BoundaryPoint:
    """The chart origin; one shared instance per dimension."""
    return BoundaryPoint(z=_frozen_zeros(k - 1), t=0.0)


@lru_cache(maxsize=None)
def infinity(k: int) -> BoundaryPoint:
    """The infinite point; one shared instance per dimension."""
    return BoundaryPoint(z=_frozen_zeros(k - 1), t=0.0, infinite=True)


# ---------------------------------------------------------------------------
# Heisenberg group operations
# ---------------------------------------------------------------------------

def heis_mul(p: BoundaryPoint, q: BoundaryPoint) -> BoundaryPoint:
    """Heisenberg product (z,t)(z',t') = (z+z', t+t'+2 Im<z,z'>)."""
    if p.infinite or q.infinite:
        raise GeometryError("group product is defined for finite points only")
    # <z, z'> = sum z_i conj(z'_i) = conj(vdot(z, z'))
    return BoundaryPoint(z=p.z + q.z,
                         t=p.t + q.t + 2.0 * complex(np.vdot(p.z, q.z)).conjugate().imag)


def heis_inv(p: BoundaryPoint) -> BoundaryPoint:
    if p.infinite:
        raise GeometryError("group inverse is defined for finite points only")
    return BoundaryPoint(z=-p.z, t=-p.t)


def gauge(p: BoundaryPoint) -> float:
    """Koranyi gauge (|z|^4 + t^2)^(1/4); zero exactly at the origin."""
    if p.infinite:
        raise GeometryError("gauge of the infinite point is undefined")
    zz = complex(np.vdot(p.z, p.z)).real
    return math.sqrt(math.sqrt(zz * zz + p.t * p.t))


def dist(p: BoundaryPoint, q: BoundaryPoint) -> float:
    """Left-invariant gauge distance, with d(p, inf) = inf and d(inf, inf) = 0."""
    if p.infinite and q.infinite:
        return 0.0
    if p.infinite or q.infinite:
        return math.inf
    dz = q.z - p.z
    dt = q.t - p.t + 2.0 * complex(np.vdot(p.z, q.z)).imag
    zz = complex(np.vdot(dz, dz)).real
    return math.sqrt(math.sqrt(zz * zz + dt * dt))


def dist_w(omega: BoundaryPoint, p: BoundaryPoint, q: BoundaryPoint) -> float:
    """Metric inversion of :func:`dist` with respect to ``omega``.

    d_w(p, q) = d(p, q) / (d(p, w) d(q, w)); for w at infinity this is the
    plain gauge distance.  The point ``omega`` becomes infinitely remote:
    d_w(p, omega) = inf for p != omega, and the old infinity lands at
    distance 1/d(q, omega) from finite q.
    """
    if omega.infinite:
        return dist(p, q)
    dp, dq = dist(p, omega), dist(q, omega)
    p_is_w, q_is_w = dp <= COINCIDENCE_TOL, dq <= COINCIDENCE_TOL
    if p_is_w and q_is_w:
        return 0.0
    if p_is_w or q_is_w:
        return math.inf
    if p.infinite and q.infinite:
        return 0.0
    if p.infinite:
        return 1.0 / dq
    if q.infinite:
        return 1.0 / dp
    return dist(p, q) / (dp * dq)


def pairing(p: BoundaryPoint, q: BoundaryPoint) -> float:
    """Magnitude of the Hermitian pairing of affine null lifts of p and q.

    With finite points lifted to null vectors normalized against the lift
    of infinity, the pairing magnitude equals dist(p,q)^2 / 2; pairs with
    exactly one infinite member give 1, and the self-pairing of infinity
    vanishes.  Cross-ratio triples built from these values need no special
    case for infinity.
    """
    return _pairing_of(dist(p, q))


def _pairing_of(d: float) -> float:
    # the pairing of two points at distance d; infinity pairs to 1
    return 1.0 if d == math.inf else 0.5 * d * d


def _pairing_stack(d: np.ndarray) -> np.ndarray:
    # _pairing_of of each entry
    return np.where(d == math.inf, 1.0, 0.5 * d * d)


def same_point(p: BoundaryPoint, q: BoundaryPoint, tol: float = COINCIDENCE_TOL) -> bool:
    """Equality up to tolerance in the gauge metric.

    No branch for infinity: ``dist`` is 0 between two infinities and inf
    against one.
    """
    return dist(p, q) <= tol


def chordal(p: BoundaryPoint, q: BoundaryPoint) -> float:
    """Bounded comparison metric d(p,q) / sqrt((1+g(p)^2)(1+g(q)^2)).

    Extends continuously to infinity (where the value is
    1/sqrt(1+g^2) against finite points) and stays scale free.
    """
    if p.infinite and q.infinite:
        return 0.0
    if p.infinite or q.infinite:
        g = gauge(q if p.infinite else p)
        return 1.0 / math.sqrt(1.0 + g * g)
    gp, gq = gauge(p), gauge(q)
    return dist(p, q) / math.sqrt((1.0 + gp * gp) * (1.0 + gq * gq))


def chordal_sq(p: BoundaryPoint, q: BoundaryPoint) -> float:
    """Squared chordal gap, the canonical point-coincidence residual.

    The gauge distance is a fourth root, so machine-size coordinate
    perturbations already read as ~1e-8 in plain distance; the squared
    gap is first order in coordinate error and separates genuinely
    distinct points at order one.
    """
    c = chordal(p, q)
    return c * c


# ---------------------------------------------------------------------------
# Cross-ratio triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossRatioTriple:
    """Projective triple of nonnegative reals, stored with max component 1."""

    a: float
    b: float
    c: float

    @classmethod
    def from_components(cls, a: float, b: float, c: float) -> "CrossRatioTriple":
        m = max(a, b, c)   # max skips a NaN unless it comes first
        if not (m > 0 and math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise GeometryError(f"degenerate cross-ratio triple ({a}, {b}, {c})")
        return cls(a / m, b / m, c / m)

    @classmethod
    def from_pairings(cls, w) -> "CrossRatioTriple":
        """The triple (xy zu : xz yu : xu yz) of a quadruple from its pairings.

        ``w`` holds the pairings of the entry pairs 01, 02, 03, 12, 13, 23
        in that order (as ``itertools.combinations`` lists them), so the
        pair complementary to ``w[i]`` is ``w[5 - i]``.
        """
        return cls.from_components(math.sqrt(w[0] * w[5]), math.sqrt(w[1] * w[4]),
                                   math.sqrt(w[2] * w[3]))

    def components(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])

    def max_difference(self, other: "CrossRatioTriple") -> float:
        return float(np.max(np.abs(self.components() - other.components())))


def _pair_dists(points) -> dict:
    """dist(points[i], points[j]) for every pair i < j, in that argument order."""
    return {(i, j): dist(points[i], points[j]) for i, j in combinations(range(len(points)), 2)}


def _admissible(n: int, dists: dict) -> bool:
    copies = [1] * n
    for (i, j), d in dists.items():
        if d <= COINCIDENCE_TOL:
            copies[i] += 1
            copies[j] += 1
    return max(copies, default=0) < 3


def is_admissible(points) -> bool:
    """True if no entry of the tuple occurs three or more times.

    Tests each unordered pair once, with the coincidence test of
    ``same_point``; every entry counts as one copy of itself.
    """
    return _admissible(len(points), _pair_dists(points))


def crt(x: BoundaryPoint, y: BoundaryPoint, z: BoundaryPoint,
        u: BoundaryPoint) -> CrossRatioTriple:
    """Cross-ratio triple (d(x,y)d(z,u) : d(x,z)d(y,u) : d(x,u)d(y,z)).

    Computed from null-lift pairings, so entries at infinity need no
    branch and the result does not depend on which metric of the Moebius
    structure is used.  The six distances serve both the admissibility
    test and the pairings (see :func:`pairing`).
    """
    dists = _pair_dists((x, y, z, u))
    if not _admissible(4, dists):
        raise GeometryError("quadruple is not admissible (an entry repeats 3+ times)")
    return CrossRatioTriple.from_pairings([_pairing_of(d) for d in dists.values()])


def harmonicity_residual(x: BoundaryPoint, z: BoundaryPoint, y: BoundaryPoint,
                         u: BoundaryPoint) -> float:
    """|first - third| of the normalized cross-ratio triple of (x,z,y,u).

    Vanishes exactly when d(x,z)d(y,u) = d(x,u)d(y,z), the harmonic
    position of the 4-tuple.
    """
    t = crt(x, z, y, u)
    return abs(t.a - t.c)


def is_harmonic(x: BoundaryPoint, z: BoundaryPoint, y: BoundaryPoint,
                u: BoundaryPoint) -> bool:
    return harmonicity_residual(x, z, y, u) <= DEFAULT_TOL


# ---------------------------------------------------------------------------
# Ptolemy defect
# ---------------------------------------------------------------------------

def _ptolemy_terms(x, y, z, u, power: float):
    pts = (x, y, z, u)
    n_inf = sum(1 for p in pts if p.infinite)
    if n_inf > 1:
        raise GeometryError("at most one entry of a Ptolemy quadruple may be infinite")
    # With one entry infinite, each product carries exactly one infinite
    # factor, which cancels between the three terms, leaving a triangle
    # comparison among the remaining points.
    sq = lambda r: r if power == 1.0 else r * r
    d = lambda p, q: 1.0 if (p.infinite or q.infinite) else sq(dist(p, q))
    return (d(x, z) * d(y, u), d(x, y) * d(z, u), d(x, u) * d(y, z))


def ptolemy_defect(x: BoundaryPoint, y: BoundaryPoint, z: BoundaryPoint,
                   u: BoundaryPoint) -> float:
    """|xz||yu| - |xy||zu| - |xu||yz| in the gauge metric.

    Nonpositive on every admissible quadruple (Ptolemy inequality), zero
    on 4-tuples in cyclic order along a circle Moebius-equivalent to the
    extended real line.  With one entry at infinity the infinite factors
    cancel and the value is the corresponding triangle defect.
    """
    t1, t2, t3 = _ptolemy_terms(x, y, z, u, 1.0)
    return t1 - t2 - t3


def ptolemy_defect_squared(x: BoundaryPoint, y: BoundaryPoint, z: BoundaryPoint,
                           u: BoundaryPoint) -> float:
    """Defect of the squared-distance Ptolemy identity; zero on chains."""
    t1, t2, t3 = _ptolemy_terms(x, y, z, u, 2.0)
    return t1 - t2 - t3


# ---------------------------------------------------------------------------
# Stacked forms
# ---------------------------------------------------------------------------
#
# Each ``*_stack`` function, here and in the other modules, returns its
# scalar twin's value for every row, bit for bit (tests/test_kernel.py
# pins each pair): it keeps the twin's floating-point operations in their
# order.  Whether a stacked reduction rounds as its one-vector form is a
# question of summation order, answered once, by these helpers:
# ``np.vecdot`` for a row pairing (it conjugates as ``np.vdot`` does and
# runs the same strided BLAS dot); ``_norm_rows`` for a row norm (the
# strided dots of ``_norm`` and ``np.linalg.norm`` on one complex vector;
# ``axis=-1`` norms, ``einsum``, ``sum`` and contiguous real rows add in
# another order); and ``_modulus`` for ``abs`` of a complex (``np.abs`` of
# an array rounds differently).  No form takes a power: squares are
# multiplies and the Cygan root is ``sqrt(sqrt(s))``, by ``math`` or numpy,
# which agree as IEEE 754 (section 5.4.1) rounds both operations correctly.

class Points(NamedTuple):
    """A stack of boundary points: row i is ``point(Z[i], T[i])``, or
    ``infinity(k)`` where ``inf[i]``, with z = 0 and t = 0 as it holds."""

    Z: np.ndarray     # (n, k-1) complex
    T: np.ndarray     # (n,) float
    inf: np.ndarray   # (n,) bool

    @classmethod
    def finite(cls, Z, T) -> "Points":
        T = np.asarray(T, dtype=float)
        return cls(np.asarray(Z, dtype=complex), T, np.zeros(T.shape, dtype=bool))

    @classmethod
    def at_infinity(cls, k: int, n: int) -> "Points":
        return cls(np.zeros((n, k - 1), dtype=complex), np.zeros(n), np.ones(n, dtype=bool))

    @classmethod
    def concat(cls, stacks) -> "Points":
        return cls(*(np.concatenate(parts) for parts in zip(*stacks)))

    def row(self, i: int) -> BoundaryPoint:
        if self.inf[i]:
            return infinity(self.Z.shape[-1] + 1)
        return BoundaryPoint(z=self.Z[i], t=float(self.T[i]))


def _norm(X: np.ndarray) -> float:
    """Euclidean norm of a 1-d complex or real vector.

    The arithmetic of ``np.linalg.norm`` on such a vector, bit for bit,
    without its dispatch.
    """
    return math.sqrt(X.real.dot(X.real) + X.imag.dot(X.imag))


def _norm_rows(X: np.ndarray) -> np.ndarray:
    """:func:`_norm` of every complex row, on the same strided real and imaginary views."""
    return np.sqrt(np.vecdot(X.real, X.real) + np.vecdot(X.imag, X.imag))


def _modulus(z: np.ndarray) -> np.ndarray:
    """``abs`` of each complex entry, as it rounds on one numpy complex."""
    return np.hypot(z.real, z.imag)


def dist_stack(P: Points, Q: Points) -> np.ndarray:
    dz = Q.Z - P.Z
    dt = Q.T - P.T + 2.0 * np.vecdot(P.Z, Q.Z).imag
    zz = np.vecdot(dz, dz).real
    d = np.sqrt(np.sqrt(zz * zz + dt * dt))
    return np.where(P.inf | Q.inf, np.where(P.inf & Q.inf, 0.0, math.inf), d)


def dist_w_stack(W: Points, P: Points, Q: Points) -> np.ndarray:
    d, dp, dq = dist_stack(P, Q), dist_stack(P, W), dist_stack(Q, W)
    p_is_w, q_is_w = dp <= COINCIDENCE_TOL, dq <= COINCIDENCE_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.select(
            [W.inf, p_is_w & q_is_w, p_is_w | q_is_w, P.inf & Q.inf, P.inf, Q.inf],
            [d, 0.0, math.inf, 0.0, 1.0 / dq, 1.0 / dp], d / (dp * dq))


def _gauge_stack(P: Points) -> np.ndarray:
    zz = np.vecdot(P.Z, P.Z).real
    return np.sqrt(np.sqrt(zz * zz + P.T * P.T))


def chordal_sq_stack(P: Points, Q: Points) -> np.ndarray:
    gp, gq = (g * g for g in (_gauge_stack(P), _gauge_stack(Q)))
    with np.errstate(invalid="ignore"):
        finite = dist_stack(P, Q) / np.sqrt((1.0 + gp) * (1.0 + gq))
    one = 1.0 / np.sqrt(1.0 + np.where(P.inf, gq, gp))   # against the finite member
    c = np.where(P.inf | Q.inf, np.where(P.inf & Q.inf, 0.0, one), finite)
    return c * c


def triples_from_pairings(w) -> np.ndarray:
    """``CrossRatioTriple.from_pairings`` of six pairing arrays: (n, 3) components."""
    a, b, c = np.sqrt(w[0] * w[5]), np.sqrt(w[1] * w[4]), np.sqrt(w[2] * w[3])
    m = np.maximum(np.maximum(a, b), c)
    bad = ~((m > 0) & np.isfinite(m))
    if bad.any():
        i = int(np.argmax(bad))
        CrossRatioTriple.from_components(float(a[i]), float(b[i]), float(c[i]))   # raises
    return np.stack([a / m, b / m, c / m], axis=-1)


def crt_stack(x: Points, y: Points, z: Points, u: Points) -> np.ndarray:
    """Components (n, 3) of :func:`crt`; raises as it does if a row is inadmissible."""
    pts, pairs = (x, y, z, u), list(combinations(range(4), 2))
    dists = [dist_stack(pts[i], pts[j]) for i, j in pairs]
    copies = np.ones((4, len(x.T)))
    for (i, j), d in zip(pairs, dists):
        copies[[i, j]] += d <= COINCIDENCE_TOL
    if (copies >= 3).any():
        raise GeometryError("quadruple is not admissible (an entry repeats 3+ times)")
    return triples_from_pairings([_pairing_stack(d) for d in dists])


def harmonicity_residual_stack(x: Points, z: Points, y: Points, u: Points) -> np.ndarray:
    t = crt_stack(x, z, y, u)
    return np.abs(t[:, 0] - t[:, 2])


def ptolemy_defect_stack(x: Points, y: Points, z: Points, u: Points,
                         power: float = 1.0) -> np.ndarray:
    """:func:`ptolemy_defect` (power 1) or :func:`ptolemy_defect_squared` (power 2)."""
    if (x.inf.astype(int) + y.inf + z.inf + u.inf > 1).any():
        raise GeometryError("at most one entry of a Ptolemy quadruple may be infinite")

    def d(p, q):
        r = dist_stack(p, q)
        return np.where(p.inf | q.inf, 1.0, r if power == 1.0 else r * r)

    return d(x, z) * d(y, u) - d(x, y) * d(z, u) - d(x, u) * d(y, z)
