"""Orthogonal complements of chains, mutual orthogonality, and Moebius joins.

A Moebius map ``eta`` of the boundary that restricts to a
fixed-point-free involution of a chain F singles out the set of points
off F whose induced involution equals eta: the orthogonal complement of
(F, eta).  ``OrthoComplement.validate()`` checks the restriction.  The
complement is the intersection of two explicit spheres, is stable under
the reflection across F, and is fibered by chains through conjugate-pole
pairs.  Membership compares eta with the involution a point induces,
computed from null lifts, at three chain points; the radius rho of the
complement follows from eta's action on one chain point.

The join machinery decomposes an arbitrary point onto a standard
R-circle meeting F in an eta-pair and an orthogonal subspace in a
reflection pair, by solving the two closed-form equations

    |xo| |oy| = rho^2,      |xo|^2 - |yo|^2 = (a^4 + b^4 - rho^4) / b^2

for the chain intercepts; the quartic one-variable form of the same
problem is handled by ``positive_root``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    BoundaryPoint,
    GeometryError,
    chordal_sq,
    point,
)
from .circles import (
    CCircle,
    MEMBERSHIP_TOL,
    OFF_CIRCLE_MARGIN,
    RCircle,
    _projection,
    ccircle_through,
    chain_chart,
    conjugate_pole,
    eta as chain_eta,
    reflection_in_ccircle,
    rcircle_through_hitting,
    sphere_between,
)
from .projective import MoebiusMap, _unit_direction, drop, lift, make_dilation, make_inversion

__all__ = [
    "OrthoComplement",
    "JoinDecomposition",
    "StandardCircle",
    "canonical_involution",
    "ortho_membership_residuals",
    "ortho_contains",
    "canonical_fiber",
    "are_orthogonal",
    "fixset_psi_residual",
    "fixset_psi_contains",
    "intercept_distances",
    "join_decompose",
    "positive_root",
    "standard_rcircle",
]


def canonical_involution(F: CCircle, omega: BoundaryPoint, o: BoundaryPoint,
                         rho: float) -> MoebiusMap:
    """The involution of F swapping omega and o with parameter rho.

    Returns the Moebius map of the boundary that, in the chart where F is
    the vertical axis, omega infinite and o at the origin, acts on the
    chain as t -> -rho^4 / t; every fixed-point-free Moebius involution
    of a chain is of this form in a suitable chart.
    """
    if not rho > 0:
        raise GeometryError("involution radius must be positive")
    c = chain_chart(F, omega, o)
    k = F.k
    inner = make_dilation(rho, k) @ make_inversion(k) @ make_dilation(1.0 / rho, k)
    return c.inverse() @ inner @ c


@dataclass(frozen=True)
class OrthoComplement:
    """Orthogonal complement of a chain F at an involution eta.

    ``eta`` is a Moebius map of the boundary whose restriction to F is a
    fixed-point-free involution; ``validate()`` checks that restriction.
    The complement is the set of points u off F whose induced chain
    involution is eta; stable under the reflection across F, and fibered
    by chains through conjugate-pole pairs.
    """

    F: CCircle
    eta: MoebiusMap

    @property
    def k(self) -> int:
        return self.F.k

    def validate(self) -> None:
        for x in self.F.sample_points(3):
            y = self.eta(x)
            if self.F.membership_residual(y) > MEMBERSHIP_TOL:
                raise GeometryError("map does not preserve the chain")
            if chordal_sq(self.eta(y), x) > 1e-7:
                raise GeometryError("map is not an involution on the chain")
            if chordal_sq(x, y) < 1e-6:
                raise GeometryError("involution has a near-fixed point on the chain")

    @cached_property
    def chart_and_radius(self):
        """Chart placing (F, eta) in canonical position, and the radius.

        The chart sends F to the vertical axis with the eta-pair
        (infinity, origin); in it the complement is the set |z| = rho,
        t = 0.  Computed once per instance.
        """
        omega = self.F.point_at(math.inf)
        c = chain_chart(self.F, omega, self.eta(omega))
        return c, _radius_of(self, c)

    def sample_points(self, n: int, rng) -> list:
        c, rho = self.chart_and_radius
        cinv = c.inverse()
        m = self.k - 1
        if m == 0:
            raise GeometryError("the complement is empty for k = 1")
        out = []
        for _ in range(n):
            # reject directions whose transported chain separation decays
            # below the off-circle margin (skewed charts shrink residuals)
            for _ in range(50):
                u = cinv(point(rho * _unit_direction(rng, m), 0.0))
                if self.F.membership_residual(u) > 10 * OFF_CIRCLE_MARGIN:
                    break
            else:
                raise GeometryError("every sampled complement point lies within "
                                    "the chain margin")
            out.append(u)
        return out

    @cached_property
    def _membership_data(self):
        """Determining chain lifts with their eta targets, and the two spheres."""
        targets = [(lift(w), self.eta(w)) for w in self.F.sample_points(3)]
        c, rho = self.chart_and_radius
        cinv = c.inverse()
        m = self.k - 1
        x = cinv(point(np.zeros(m), rho * rho))
        y = cinv(point(np.zeros(m), -rho * rho))
        o = cinv(point(np.zeros(m), 0.0))
        spheres = (
            sphere_between(o, self.F.point_at(math.inf), x),  # covered by R-circles through x, y
            sphere_between(x, y, o),                          # through o, omega between x and y
        )
        return targets, spheres


def _radius_of(A: OrthoComplement, c: MoebiusMap) -> float:
    """Radius of A in a chart sending an eta-pair to infinity and the origin,
    where eta acts on F as t -> -rho^4 / t."""
    for tau0 in (1.0, 2.0, -1.0, 0.5):
        p1 = A.F.point_at(tau0)
        q1 = c(A.eta(p1))
        tau = c(p1).t
        if q1.infinite or abs(tau) < 1e-9:
            continue
        q = -q1.t * tau
        if not q > 0:
            raise GeometryError("involution is not fixed-point free in the chart")
        return q ** 0.25
    raise GeometryError("could not place the involution in canonical position")


def _three_point_residual(A: OrthoComplement, u: BoundaryPoint) -> float:
    if A.F.membership_residual(u) <= OFF_CIRCLE_MARGIN:
        raise GeometryError("membership in the complement needs a point off the chain")
    targets, _ = A._membership_data
    U = lift(u)
    return max(chordal_sq(drop(_projection(A.F, W, U)), target) for W, target in targets)


def ortho_membership_residuals(A: OrthoComplement, u: BoundaryPoint):
    """The two membership residuals of u in A: three-point and two-sphere.

    The first compares the involution induced by u with eta at three
    determining points of F.  The second tests u against the two spheres
    whose intersection is A: with (x, o, y, omega) a harmonic eta-paired
    quadruple on F, these are the sphere between o and omega through x
    (the union of R-circles through x, y) and the sphere between x and y
    through o.  The symmetric intercepts of the canonical chart realize
    such a quadruple exactly.
    """
    r3 = _three_point_residual(A, u)
    _, spheres = A._membership_data
    return r3, max(s.membership_residual(u) for s in spheres)


def ortho_contains(A: OrthoComplement, u: BoundaryPoint,
                   tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership of u in A by the three-point residual alone."""
    return _three_point_residual(A, u) <= tol


def canonical_fiber(A: OrthoComplement, u: BoundaryPoint) -> CCircle:
    """Fiber of the canonical fibration of A through u.

    The chain through u and its conjugate pole; contained in A and
    preserved by the reflection across F.
    """
    if not ortho_contains(A, u, tol=1e-6):
        raise GeometryError("fibers pass through points of the complement only")
    return ccircle_through(u, conjugate_pole(A.F, u))


def are_orthogonal(F: CCircle, Fp: CCircle) -> bool:
    """True if the reflection across F maps F' onto itself (and F != F').

    The relation is symmetric: invariance of F' under the reflection
    across F forces invariance of F under the reflection across F'.
    """
    mutual = max(Fp.membership_residual(p) for p in F.sample_points(3))
    if mutual <= MEMBERSHIP_TOL:
        return False  # the same circle is not orthogonal to itself
    phi = reflection_in_ccircle(F)
    worst = 0.0
    for p in Fp.sample_points(3):
        worst = max(worst, Fp.membership_residual(phi(p)))
    return worst <= MEMBERSHIP_TOL


def fixset_psi_residual(F: CCircle, Fp: CCircle, u: BoundaryPoint) -> float:
    """Displacement of u under the composed reflections across F' and F."""
    phi = reflection_in_ccircle(F)
    phip = reflection_in_ccircle(Fp)
    return chordal_sq(u, phip(phi(u)))


def fixset_psi_contains(F: CCircle, Fp: CCircle, u: BoundaryPoint) -> bool:
    """Membership of u in the fixed set of the composed reflections.

    For mutually orthogonal chains this fixed set is exactly the
    intersection of the two orthogonal complements.
    """
    return fixset_psi_residual(F, Fp, u) <= MEMBERSHIP_TOL


# ---------------------------------------------------------------------------
# Join decomposition
# ---------------------------------------------------------------------------

def intercept_distances(a: float, b: float, rho: float):
    """Solve |xo| |oy| = rho^2, |xo|^2 - |yo|^2 = c for the chain intercepts.

    c = (a^4 + b^4 - rho^4) / b^2.  Returns (X, Y, c) with X = |xo|,
    Y = |yo|; the quadratic solution uses the cancellation-free branch so
    both defining equations are reproduced to machine precision.
    """
    if not (0 < a < math.inf and 0 < b < math.inf and 0 < rho < math.inf):
        raise GeometryError("intercept data must be positive and finite")
    try:
        cc = (a ** 4 + b ** 4 - rho ** 4) / (b * b)
        root = math.hypot(cc, 2.0 * rho * rho)
        if cc >= 0.0:
            Ysq = 2.0 * rho ** 4 / (cc + root)
        else:
            Ysq = 0.5 * (root - cc)
        Y = math.sqrt(Ysq)
        X = rho * rho / Y
    except (OverflowError, ZeroDivisionError):  # finite data out of range
        X = Y = math.nan
    if not (0 < X < math.inf and 0 < Y < math.inf):
        raise GeometryError("intercept data out of floating-point range")
    return X, Y, cc


@dataclass(frozen=True)
class JoinDecomposition:
    """A point decomposed onto a standard R-circle of the join of F and A.

    F is a chain and A its orthogonal complement.  ``x`` and
    ``y = eta(x)`` are the chain intercepts, ``w`` their midpoint on the
    chain, ``r`` the sphere radius with |w u| = r, and ``sigma`` the
    standard circle through x, u, y.  ``xo`` and ``yo`` solve the product
    and squared-difference equations for the data (a, b, rho).
    """

    x: BoundaryPoint
    y: BoundaryPoint
    w: BoundaryPoint
    r: float
    sigma: RCircle
    rho: float
    a: float
    b: float
    xo: float
    yo: float


def join_decompose(A: OrthoComplement, u: BoundaryPoint,
                   omega: BoundaryPoint) -> JoinDecomposition:
    """Decompose u onto a standard R-circle of the join of A.F and A.

    The complement enters through its involution, which pairs omega with
    o = A.eta(omega), and through its radius rho in the chart with omega
    infinite and o at the origin.  With z the projection of u to F = A.F,
    a = |z u|, b = |z o| and c = (a^4 + b^4 - rho^4)/b^2, the intercept
    distances are Y^2 = (-c + sqrt(c^2 + 4 rho^4))/2 and X = rho^2 / Y.
    """
    F = A.F
    if F.membership_residual(u) <= OFF_CIRCLE_MARGIN:
        raise GeometryError("join decomposition needs a point off the chain")
    o = A.eta(omega)
    c = chain_chart(F, omega, o)  # checks that omega and o lie on F
    rho = _radius_of(A, c)
    u1 = c(u)
    a = float(np.sum((u1.z * np.conj(u1.z)).real)) ** 0.5
    b = abs(u1.t) ** 0.5
    if a <= 1e-13:
        raise GeometryError("point lies on the chain fiber; decomposition degenerates")
    cinv = c.inverse()

    if b <= 1e-13:
        # u sits on the R-line through o: the degenerate pair (o, omega)
        # carries the standard circle, a sphere of radius a around o.
        sigma = rcircle_through_hitting(F, omega, u)
        return JoinDecomposition(x=o, y=omega, w=o, r=a, sigma=sigma,
                                 rho=rho, a=a, b=b, xo=0.0, yo=math.inf)

    X, Y, _ = intercept_distances(a, b, rho)
    s = math.copysign(X * X, u1.t)
    x1 = point(np.zeros(F.k - 1), s)
    y1 = point(np.zeros(F.k - 1), -rho ** 4 / s)
    w1 = point(np.zeros(F.k - 1), 0.5 * (s - rho ** 4 / s))
    r = math.sqrt(0.5 * (X * X + Y * Y))
    x = cinv(x1)
    sigma = rcircle_through_hitting(F, x, u)
    return JoinDecomposition(x=x, y=cinv(y1), w=cinv(w1), r=r, sigma=sigma,
                             rho=rho, a=a, b=b, xo=X, yo=Y)


def positive_root(b: float, c: float, d: float) -> float:
    """The unique positive root of s^4 + c (s + b)^4 = d.

    Requires b, c > 0 and c b^4 - d < 0; the derivative is positive on
    s > 0, so a bracketing bisection (plus a Newton polish) finds the
    root to full precision.
    """
    if not (b > 0 and c > 0):
        raise GeometryError("coefficients b and c must be positive")
    g = lambda s: s ** 4 + c * (s + b) ** 4 - d
    if not g(0.0) < 0:
        raise GeometryError("no positive root: c b^4 - d must be negative")
    hi = max(b, 1.0)
    while g(hi) <= 0:
        hi *= 2.0
        if hi > 1e154:
            raise GeometryError("root bracketing failed")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * hi:
            break
    s0 = 0.5 * (lo + hi)
    for _ in range(3):
        ds = 4.0 * s0 ** 3 + 4.0 * c * (s0 + b) ** 3
        s0 -= g(s0) / ds
    return s0


@dataclass(frozen=True)
class StandardCircle:
    """A standard R-circle of a join with its chain and subspace intercepts."""

    sigma: RCircle
    u: BoundaryPoint
    x: BoundaryPoint
    v: BoundaryPoint
    y: BoundaryPoint


def standard_rcircle(A: OrthoComplement, x: BoundaryPoint,
                     u: BoundaryPoint) -> StandardCircle:
    """The standard R-circle through u (on F = A.F) and x (on A).

    It meets F again at v = A.eta(u), the image of u under the involution
    of F induced by x, and carries y, the reflection of x across F, with
    (u, x, v, y) in harmonic position.  Distinct standard circles meet
    only inside F union A.
    """
    F = A.F
    if F.membership_residual(x) <= OFF_CIRCLE_MARGIN:
        raise GeometryError("x must lie off the chain")
    if not F.contains(u):
        raise GeometryError("u must lie on the chain")
    if not ortho_contains(A, x, tol=1e-6):
        raise GeometryError("x must lie on the orthogonal subspace")
    sigma = rcircle_through_hitting(F, u, x)
    v = chain_eta(F, x, u)
    y = conjugate_pole(F, x)
    return StandardCircle(sigma=sigma, u=u, x=x, v=v, y=y)
