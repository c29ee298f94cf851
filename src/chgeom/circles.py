"""Chains (C-circles) and R-circles on the boundary sphere.

A chain is the boundary of a complex geodesic: through infinity it is a
vertical line of the Heisenberg chart, and every chain is the image of
the canonical one (vertical axis plus infinity) under a Moebius map.  An
R-circle is the boundary of a totally real plane; the canonical one is
the horizontal first-axis line plus infinity.  Circles are stored as the
Moebius map carrying the canonical model onto them.

Membership is decided in the projective model: a chain is the null cone
of a complex 2-plane, an R-circle the null cone of a phase times a real
3-space, so both residuals are scale-free and need no chart branches.

The constructions here realize the incidence structure: the unique chain
through two points, the unique R-circle through a chain point and an
outside point that meets the chain again, the projection ``mu`` onto a
chain, the induced fixed-point-free involution ``eta`` of a chain, the
reflection across a chain with its conjugate poles, and spheres between
two points.  ``mu`` and ``eta`` are computed from pairings of null lifts,
with no chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    BoundaryPoint,
    GeometryError,
    Points,
    _norm,
    dist,  # noqa: F401 (rebound by the benchmark tracer)
    dist_w,
    gauge,
    harmonicity_residual,
    infinity,
    point,
    same_point,
)
from .projective import (
    MoebiusMap,
    _uniform,
    _unit_direction,
    axis_reflection,
    chart,
    drop,
    herm,
    lift,
    make_dilation,
    make_rotation,
    make_translation,
    map_points,
)

__all__ = [
    "CCircle",
    "RCircle",
    "Sphere",
    "MEMBERSHIP_TOL",
    "chain_chart",
    "ccircle_through",
    "rcircle_through_hitting",
    "mu",
    "eta",
    "conjugate_pole",
    "reflection_in_ccircle",
    "sphere_between",
    "circle_pointset_residual",
    "unitary_with_first_column",
]

# Membership tolerance for points constructed to lie on a circle, after
# the configuration is normalized to unit scale; inversion amplifies
# error near poles, which is why this is looser than machine epsilon.
MEMBERSHIP_TOL = 1e-8

# Points with membership residual above this are safely off the circle.
OFF_CIRCLE_MARGIN = 1e-6

_DEFAULT_PARAMS = (0.0, 1.0, -1.0, 0.5, 2.0, -2.0, math.inf)


def _sample_params(n: int, step: float):
    """The default parameters, followed by multiples of ``step``."""
    params = list(_DEFAULT_PARAMS)[:n]
    while len(params) < n:
        params.append(step * (len(params) - 2))
    return params


class _Membership:
    """``contains``, for the shapes that define ``membership_residual``."""

    def contains(self, p: BoundaryPoint) -> bool:
        return self.membership_residual(p) <= MEMBERSHIP_TOL


@dataclass(frozen=True)
class _Circle(_Membership):
    """A circle stored as the Moebius map carrying its canonical model onto it.

    A subclass names its canonical point at a finite parameter and, as
    ``_STEP``, the step of its sample parameters beyond the defaults.
    """

    map: MoebiusMap

    @property
    def k(self) -> int:
        return self.map.k

    def point_at(self, s: float) -> BoundaryPoint:
        """Image of the canonical point at parameter s; s = inf allowed."""
        if math.isinf(s):
            return self.map(infinity(self.k))
        return self.map(self._canonical_point(s))

    def sample_points(self, n: int) -> list:
        return [self.point_at(s) for s in _sample_params(n, self._STEP)]

    def points_at_stack(self, g: np.ndarray, params: np.ndarray) -> list:
        """``self.transported(g[i]).point_at(params[i, j])`` for finite parameters,
        as one stack of points per column j."""
        return map_points(g @ self.map.g, *(self._canonical_points(params[:, j])
                                            for j in range(params.shape[1])))

    def transported(self, g: MoebiusMap):
        """The image circle g(self), of the same class."""
        return type(self)(map=g @ self.map)


@dataclass(frozen=True)
class CCircle(_Circle):
    """A chain, as the image of the vertical axis + infinity under ``map``."""

    _STEP = 0.37

    def _canonical_point(self, tau: float) -> BoundaryPoint:
        return point(np.zeros(self.k - 1), tau)

    def _canonical_points(self, taus: np.ndarray) -> Points:
        return Points.finite(np.zeros((len(taus), self.k - 1)), taus)

    @cached_property
    def _plane_basis(self) -> np.ndarray:
        """Orthonormal basis of the chain's complex 2-plane."""
        Q, _ = np.linalg.qr(self.map.g[:, [0, self.k]])
        return Q

    @cached_property
    def _reflection(self) -> MoebiusMap:
        return self.map @ axis_reflection(self.k) @ self.map.inverse()

    def membership_residual(self, p: BoundaryPoint) -> float:
        """Squared distance of the unit null lift from the chain's complex 2-plane.

        Quadratic in the transverse displacement, so machine-exact
        constructions score near 1e-16 while genuinely off-circle points
        score far above the membership tolerance.
        """
        Q = self._plane_basis
        X = lift(p)
        return float(_norm(X - Q @ (Q.conj().T @ X)) ** 2)


@dataclass(frozen=True)
class RCircle(_Circle):
    """An R-circle, as the image of the horizontal first axis + infinity."""

    _STEP = 0.41

    def _canonical_point(self, s: float) -> BoundaryPoint:
        z = np.zeros(self.k - 1, dtype=complex)
        z[0] = s
        return point(z, 0.0)

    def _canonical_points(self, s: np.ndarray) -> Points:
        Z = np.zeros((len(s), self.k - 1), dtype=complex)
        Z[:, 0] = s
        return Points.finite(Z, np.zeros(len(s)))

    @cached_property
    def _ginv(self) -> np.ndarray:
        return self.map.inverse().g

    def membership_residual(self, p: BoundaryPoint) -> float:
        """Squared deviation of the pulled-back lift from phase times a real vector.

        The canonical circle is the null cone of the real span of
        (e_0, e_1, e_k); the residual combines the off-span components
        with the best-phase imaginary part inside the span.  Reported
        squared (quadratic in the transverse displacement): the phase
        minimum is a difference of order-one terms whose square root
        would bottom out at sqrt(eps), above the membership tolerance.
        """
        k = self.k
        Y = self._ginv @ lift(p)
        Y = Y / _norm(Y)
        tail = Y[2:k]
        v = np.array([Y[0], Y[1], Y[k]])
        # min over phases of || Im(e^{-i a} v) ||^2 = (|v|^2 - |v.v|) / 2
        phase_part = 0.5 * (float((np.abs(v) ** 2).sum()) - abs((v * v).sum()))
        return float((np.abs(tail) ** 2).sum()) + max(phase_part, 0.0)


# ---------------------------------------------------------------------------
# Chain charts
# ---------------------------------------------------------------------------

def _chain_point_away_from(F: CCircle, avoid: BoundaryPoint) -> BoundaryPoint:
    """Of F's points at tau = inf and 0, the one pairing more with ``avoid``, per length."""
    g = F.map.g
    a, b = g[:, 0], g[:, F.k]
    X = lift(avoid)
    return drop(a if abs(herm(a, X)) * _norm(b) >= abs(herm(b, X)) * _norm(a) else b)


def chain_chart(F: CCircle, omega: BoundaryPoint, o: BoundaryPoint | None = None) -> MoebiusMap:
    """Chart sending omega to infinity and F to the vertical axis.

    With ``o`` given (a point of F), o goes to the origin; otherwise the
    axis position is fixed by an arbitrary second point of F.
    """
    if not F.contains(omega):
        raise GeometryError("omega must lie on the chain")
    if o is None:
        o = _chain_point_away_from(F, omega)
    elif not F.contains(o):
        raise GeometryError("o must lie on the chain")
    return chart(omega, o)


# ---------------------------------------------------------------------------
# Existence constructions
# ---------------------------------------------------------------------------

def ccircle_through(p: BoundaryPoint, q: BoundaryPoint) -> CCircle:
    """The unique chain through two distinct points."""
    if same_point(p, q):
        raise GeometryError("a chain needs two distinct points")
    n = chart(p)
    q1 = n(q)
    if q1.infinite:
        raise GeometryError("points are not distinguishable in the chart")
    m = n.inverse() @ make_translation(q1.z, q1.t)
    return CCircle(map=m)


def unitary_with_first_column(w: np.ndarray) -> np.ndarray:
    """A unitary matrix whose first column is the unit vector ``w``."""
    m = w.shape[0]
    A = np.eye(m, dtype=complex)
    A[:, 0] = w
    # Replace the standard basis column most parallel to w to keep rank.
    j = int(np.argmax(np.abs(w)))
    if j != 0:
        A[:, j] = np.eye(m, dtype=complex)[:, 0]
    Q, _ = np.linalg.qr(A)
    lam = complex(np.vdot(w, Q[:, 0]))
    Q[:, 0] = Q[:, 0] * np.conj(lam) / abs(lam)
    return Q


def rcircle_through_hitting(F: CCircle, omega: BoundaryPoint, u: BoundaryPoint) -> RCircle:
    """The unique R-circle through omega (on F) and u (off F) meeting F again.

    In the chart where omega is infinite and F is the vertical axis this
    is the horizontal line s -> (z_u + s(z_F - z_u), t_u + 2 s Im<z_u, z_F - z_u>).
    """
    if F.k < 2:
        raise GeometryError("R-circles need complex dimension k >= 2")
    n = chain_chart(F, omega)  # checks that omega lies on F
    if F.membership_residual(u) <= OFF_CIRCLE_MARGIN:
        raise GeometryError("u must lie off the chain")
    u1 = n(u)
    nw = _norm(u1.z)
    if nw <= 1e-14:
        raise GeometryError("u projects onto omega; configuration is degenerate")
    U = unitary_with_first_column(-u1.z / nw)
    line = make_translation(u1.z, u1.t) @ make_rotation(U) @ make_dilation(nw, F.k)
    return RCircle(map=n.inverse() @ line)


def _projection(F: CCircle, W: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Lift of mu(F, omega, u) from lifts W, U: U projected onto F's plane
    (null basis a, b, <a, b> = 1), then made null along W.  With omega at
    infinity and F the axis this is the lift of (0, t_u)."""
    g = F.map.g
    a, b = g[:, 0], g[:, F.k]
    P = herm(U, b) * a + herm(U, a) * b
    return P - (herm(P, P) / (2.0 * herm(W, P))) * W


def mu(F: CCircle, omega: BoundaryPoint, u: BoundaryPoint) -> BoundaryPoint:
    """Retraction of the boundary onto the chain F determined by omega.

    Identity on F; otherwise the second intersection with F of the
    R-circle through omega and u that meets F.
    """
    if not F.contains(omega):
        raise GeometryError("omega must lie on the chain")
    if F.contains(u):
        return u
    return drop(_projection(F, lift(omega), lift(u)))


def eta(F: CCircle, u: BoundaryPoint, omega: BoundaryPoint) -> BoundaryPoint:
    """The involution of F induced by the outside point u: eta_u(omega) = mu(u).

    Fixed-point free on F, and Moebius as a map of F.
    """
    if not F.contains(omega):
        raise GeometryError("omega must lie on the chain")
    if F.membership_residual(u) <= OFF_CIRCLE_MARGIN:
        raise GeometryError("u must lie off the chain")
    return drop(_projection(F, lift(omega), lift(u)))


def reflection_in_ccircle(F: CCircle) -> MoebiusMap:
    """The reflection of the boundary whose fixed point set is the chain F.

    Conjugate of the chart reflection (z, t) -> (-z, t); an involution
    that maps every R-circle meeting F at two points onto itself.
    Cached per chain.
    """
    return F._reflection


def conjugate_pole(F: CCircle, u: BoundaryPoint) -> BoundaryPoint:
    """The second pole v paired with u across the chain F.

    For every x on F the tuple (x, u, eta_u(x), v) is harmonic and lies
    on one R-circle; v is the image of u under the reflection across F.
    """
    if F.membership_residual(u) <= OFF_CIRCLE_MARGIN:
        raise GeometryError("conjugate pole degenerates for points on the chain")
    return reflection_in_ccircle(F)(u)


# ---------------------------------------------------------------------------
# Spheres between two points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sphere(_Membership):
    """Sphere between two poles: the harmonicity class of x relative to them.

    In the chart where omega_prime is infinite this is the metric sphere
    centered at omega through x; sending any of its points to infinity
    turns it into the bisector between the poles.
    """

    omega: BoundaryPoint
    omega_prime: BoundaryPoint
    x: BoundaryPoint

    @property
    def k(self) -> int:
        return self.x.k

    def membership_residual(self, p: BoundaryPoint) -> float:
        return harmonicity_residual(self.omega, self.x, self.omega_prime, p)

    def radius(self) -> float:
        """Radius of the sphere in the metric sending omega_prime to infinity."""
        return dist_w(self.omega_prime, self.omega, self.x)

    def sample_points(self, n: int, rng) -> list:
        """Points on the sphere, constructed in the centered chart."""
        c = chart(self.omega_prime, self.omega)
        r = gauge(c(self.x))
        cinv = c.inverse()
        out = []
        m = self.k - 1
        for _ in range(n):
            phi = _uniform(rng, -0.5 * math.pi, 0.5 * math.pi)
            t = r * r * math.sin(phi)
            zn = math.sqrt(max(math.cos(phi), 0.0)) * r
            if m:
                z = zn * _unit_direction(rng, m)
            else:
                z = np.zeros(0, dtype=complex)
                t = r * r * math.copysign(1.0, math.sin(phi) if phi else 1.0)
            out.append(cinv(point(z, t)))
        return out


def sphere_between(omega: BoundaryPoint, omega_prime: BoundaryPoint,
                   x: BoundaryPoint) -> Sphere:
    """The sphere between two distinct points through a third one."""
    if same_point(omega, omega_prime):
        raise GeometryError("sphere poles must be distinct")
    if same_point(x, omega) or same_point(x, omega_prime):
        raise GeometryError("the anchor point must differ from both poles")
    return Sphere(omega=omega, omega_prime=omega_prime, x=x)


# ---------------------------------------------------------------------------
# Point-set comparison
# ---------------------------------------------------------------------------

def circle_pointset_residual(a, b) -> float:
    """Symmetric membership residual between two circles of the same kind.

    Zero (within membership tolerance) exactly when the circles agree as
    point sets; a Moebius circle is pinned by three of its points.
    """
    worst = 0.0
    for p in a.sample_points(3):
        worst = max(worst, b.membership_residual(p))
    for q in b.sample_points(3):
        worst = max(worst, a.membership_residual(q))
    return worst
