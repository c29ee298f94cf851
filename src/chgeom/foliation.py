"""The canonical foliation by chains through a distinguished point.

Fixing a boundary point omega, the chains through it fibrate the rest of
the boundary; the quotient (the base) carries a metric in which the
projection is 1-Lipschitz and restricts to an isometry on every R-line.
With omega at infinity the fibers are the vertical lines of the chart
and the base is the horizontal coordinate space C^(k-1) with the
Euclidean metric.  Any other omega is read in ``chart(omega, o)``, an
isometry from the metric with omega remote to the gauge metric, where
an R-line through omega and o is a horizontal line {s e} through the
origin and s is its arclength.

Besides the projection and the base distance, this module provides
Busemann functions of R-lines (in closed form),
vertical shifts, pure homotheties, and the holonomy of horizontal lifts:
lifting the sides of a closed base polygon returns to the starting fiber
shifted vertically by minus four times the enclosed signed area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryPoint,
    GeometryError,
    _norm,
    dist_w,
    same_point,
)
from .circles import CCircle, RCircle, _chain_point_away_from, mu
from .projective import MoebiusMap, chart, make_dilation, make_translation

__all__ = [
    "Polygon",
    "project_base",
    "base_dist",
    "busemann",
    "vertical_shift",
    "pure_homothety",
    "horizontal_lift",
    "tau",
    "tau_stack",
    "signed_area",
]

def project_base(omega: BoundaryPoint, x: BoundaryPoint) -> np.ndarray:
    """Base coordinate of x under the fibration by chains through omega.

    Returned as the horizontal coordinate in the chart sending omega to
    infinity.  That chart is an isometry from the metric with omega remote
    to the gauge metric, so distances between base points equal the base
    metric; two points share a fiber exactly when their projections agree.
    """
    if same_point(x, omega, tol=1e-14):
        raise GeometryError("the distinguished point has no base coordinate")
    n = chart(omega)
    x1 = n(x)
    if x1.infinite:
        raise GeometryError("x is indistinguishable from omega in the chart")
    return x1.z


def base_dist(omega: BoundaryPoint, F: CCircle, Fp: CCircle) -> float:
    """Distance between two fibers: |x' mu_F(x')| for any x' on the second.

    Well defined (independent of x'), and equal to the Euclidean distance
    of the fibers' base coordinates.
    """
    for fiber in (F, Fp):
        if not fiber.contains(omega):
            raise GeometryError("base distance needs fibers through omega")
    xp = _chain_point_away_from(Fp, omega)
    return dist_w(omega, xp, mu(F, omega, xp))


# ---------------------------------------------------------------------------
# Busemann functions
# ---------------------------------------------------------------------------

def busemann(omega: BoundaryPoint, sigma: RCircle, o: BoundaryPoint,
             x: BoundaryPoint) -> float:
    """Busemann function of the R-line sigma in the space with omega remote.

    Normalized to vanish at ``o`` and to decrease from ``o`` towards
    ``omega`` along increasing canonical parameter of ``sigma``; on the
    line itself it is minus the arclength from ``o``.  In
    ``chart(omega, o)`` sigma is the line {s e}, with e the direction of
    sigma's point at a parameter between o's and omega's, and the closed
    form is -Re<z_x, e>.
    """
    if same_point(x, omega, tol=1e-14):
        raise GeometryError("the Busemann function is defined away from omega")
    if not sigma.contains(omega):
        raise GeometryError("the R-circle must pass through omega")
    if not sigma.contains(o):
        raise GeometryError("the basepoint must lie on the R-circle")
    if same_point(o, omega):
        raise GeometryError("basepoint and omega coincide")
    c = chart(omega, o)
    back = sigma.map.inverse()
    so = back(o).z[0].real
    w = back(omega)
    sw = math.inf if w.infinite else w.z[0].real
    # orient by a point strictly between o and omega along increasing parameter
    step = min(1.0, 0.5 * (sw - so)) if so < sw else 1.0
    ahead = c(sigma.point_at(so + step)).z
    length = _norm(ahead)
    if length < 1e-13:
        raise GeometryError("could not orient the R-line chart")
    e = ahead / length

    x1 = c(x)
    if x1.infinite:
        raise GeometryError("x has no finite chart image")
    return -complex(np.vdot(e, x1.z)).real


# ---------------------------------------------------------------------------
# Automorphisms adapted to the foliation
# ---------------------------------------------------------------------------

def vertical_shift(omega: BoundaryPoint, s: float) -> MoebiusMap:
    """Isometry shifting every fiber by displacement sqrt(|s|).

    In the chart with omega at infinity it is (z, t) -> (z, t + s).
    """
    k = omega.k
    if omega.infinite:  # conjugating by the identity chart would flip signed zeros
        return make_translation(np.zeros(k - 1), float(s))
    n = chart(omega)
    return n.inverse() @ make_translation(np.zeros(k - 1), float(s)) @ n


def pure_homothety(o: BoundaryPoint, omega: BoundaryPoint, lam: float) -> MoebiusMap:
    """Homothety of coefficient lam fixing o and omega.

    Scales the metric with omega remote by lam and preserves every
    R-line through o.
    """
    if not lam > 0:
        raise GeometryError(f"homothety coefficient must be positive, got {lam}")
    if same_point(o, omega):
        raise GeometryError("homothety endpoints must be distinct")
    c = chart(omega, o)
    return c.inverse() @ make_dilation(float(lam), o.k) @ c


# ---------------------------------------------------------------------------
# Horizontal lifts of base polygons
# ---------------------------------------------------------------------------

def horizontal_lift(b1: np.ndarray, b2: np.ndarray, t: float) -> float:
    """Endpoint height of the R-line segment over [b1, b2] starting at height t.

    The horizontal line through (b1, t) toward b2 reaches the fiber over
    b2 at t + 2 Im<b1, b2>.
    """
    b1 = np.atleast_1d(np.asarray(b1, dtype=complex))
    b2 = np.atleast_1d(np.asarray(b2, dtype=complex))
    t_end = float(t) + 2.0 * complex(np.sum(b1 * np.conj(b2))).imag
    if not math.isfinite(t_end):  # any non-finite input makes it so
        raise GeometryError("a horizontal lift needs finite base points and height")
    return t_end


@dataclass(frozen=True)
class Polygon:
    """Closed oriented polygon in the base, starting at its first vertex.

    Closure is implicit (the last vertex connects back to the first);
    vertices must be finite and consecutive ones distinct.  Two vertices
    are allowed so that degenerate forth-and-back loops can be folded.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.atleast_2d(np.asarray(self.vertices, dtype=complex))
        object.__setattr__(self, "vertices", v)
        m = v.shape[0]
        if m < 2:
            raise GeometryError("a polygon needs at least two vertices")
        if not np.isfinite(v).all():
            raise GeometryError("polygon vertices must be finite")
        for i in range(m):
            if np.linalg.norm(v[i] - v[(i + 1) % m]) == 0.0:
                raise GeometryError("consecutive polygon vertices must be distinct")

    def scaled(self, lam: float) -> "Polygon":
        return Polygon(vertices=lam * self.vertices)


def tau(P: Polygon, t0: float) -> tuple:
    """Fold the horizontal lift around the polygon; returns (t_end, displacement).

    The height change t_end - t0 does not depend on t0 and equals
    -4 times the signed area for polygons inside a complex coordinate
    line of the base; the resulting map of the starting fiber is the
    vertical shift by that change.
    """
    v = P.vertices
    t = float(t0)
    for i in range(v.shape[0]):
        t = horizontal_lift(v[i], v[(i + 1) % v.shape[0]], t)
    return t, math.sqrt(abs(t - float(t0)))


def tau_stack(V: np.ndarray, t0) -> tuple:
    """Stacked :func:`tau` of the polygons ``V`` (n, vertices, k-1) from heights ``t0``.

    Each step is :func:`horizontal_lift` on every row, so row i is
    ``tau(Polygon(vertices=V[i]), t0[i])`` bit for bit; the vertices are
    not validated.
    """
    t0 = np.broadcast_to(np.asarray(t0, dtype=float), V.shape[:1])
    t, count = t0, V.shape[1]
    for i in range(count):
        t = t + 2.0 * (V[:, i] * np.conj(V[:, (i + 1) % count])).sum(axis=-1).imag
    return t, np.sqrt(np.abs(t - t0))


def signed_area(P: Polygon) -> float:
    """Shoelace area of a polygon lying in the first complex coordinate line."""
    v = P.vertices
    if v.shape[1] == 0:
        raise GeometryError("the base of a 1-dimensional boundary is a point")
    if v.shape[1] > 1 and float(np.max(np.abs(v[:, 1:]))) > 1e-12 * max(
        1.0, float(np.max(np.abs(v)))
    ):
        raise GeometryError("signed area needs a polygon in the first coordinate line")
    w = v[:, 0]
    x, y = w.real, w.imag
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))
