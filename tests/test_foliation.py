"""Base projection, fiber metric, Busemann functions, shifts, lifts."""

import math

import numpy as np
import pytest

from chgeom.core import (
    GeometryError,
    SpaceConfig,
    chordal_sq,
    dist,
    dist_w,
    infinity,
    origin,
    point,
)
from chgeom import foliation
from chgeom.circles import ccircle_through
from chgeom.harness import SuiteConfig, run_suite
from chgeom.projective import MoebiusMap, chart
from chgeom.foliation import (
    Polygon,
    base_dist,
    busemann,
    horizontal_lift,
    project_base,
    pure_homothety,
    signed_area,
    tau,
    vertical_shift,
)
from chgeom.sampling import (
    canonical_rcircle,
    sample_distinct_points,
    sample_point,
    sample_rcircle,
)


def test_project_base_chart():
    omega = infinity(2)
    assert np.allclose(project_base(omega, point([1], 7.0)), [1.0])
    F = ccircle_through(omega, point([0.3 - 0.2j], 0.0))
    b1 = project_base(omega, F.point_at(0.5))
    b2 = project_base(omega, F.point_at(-2.0))
    assert np.linalg.norm(b1 - b2) < 1e-12
    with pytest.raises(GeometryError):
        project_base(omega, omega)


def test_project_base_isometric_on_rlines():
    omega = infinity(2)
    sigma = canonical_rcircle(2)
    p1, p2 = sigma.point_at(-1.2), sigma.point_at(0.7)
    b1, b2 = project_base(omega, p1), project_base(omega, p2)
    assert np.linalg.norm(b1 - b2) == pytest.approx(dist(p1, p2), rel=1e-12)


def test_project_base_one_lipschitz(rng):
    cfg = SpaceConfig(k=3)
    omega = infinity(3)
    for _ in range(50):
        x, y = sample_distinct_points(cfg, rng, 2)
        bx, by = project_base(omega, x), project_base(omega, y)
        assert np.linalg.norm(bx - by) <= dist(x, y) * (1 + 1e-12)


def test_chart_carries_inverted_metric_to_gauge(space, rng):
    # project_base and vertical_shift read the metric with omega remote
    # straight off chart(omega), with no rescaling
    for _ in range(20):
        omega, p, q = sample_distinct_points(space, rng, 3)
        n = chart(omega)
        assert dist(n(p), n(q)) == pytest.approx(dist_w(omega, p, q), rel=1e-12)


def test_project_base_finite_omega(rng):
    cfg = SpaceConfig(k=2)
    omega = point([0.4], -1.0)
    x, y = sample_distinct_points(cfg, rng, 2)
    bx, by = project_base(omega, x), project_base(omega, y)
    assert np.linalg.norm(bx - by) <= dist_w(omega, x, y) * (1 + 1e-10)


def test_base_dist_values():
    omega = infinity(2)
    F = ccircle_through(omega, origin(2))
    Fp = ccircle_through(omega, point([1], 0.0))
    assert base_dist(omega, F, Fp) == pytest.approx(1.0, abs=1e-12)
    assert base_dist(omega, F, F) < 1e-12
    with pytest.raises(GeometryError):
        base_dist(omega, F, ccircle_through(origin(2), point([1], 0.0)))


def test_busemann_on_line_and_fibers():
    omega = infinity(2)
    sigma = canonical_rcircle(2)
    o = origin(2)
    assert busemann(omega, sigma, o, point([0], 3.0)) == pytest.approx(0.0, abs=1e-12)
    assert busemann(omega, sigma, o, sigma.point_at(2.0)) == pytest.approx(-2.0, abs=1e-12)
    assert busemann(omega, sigma, o, sigma.point_at(-1.5)) == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(GeometryError):
        busemann(omega, sigma, o, omega)


def _busemann_limit(sigma, o, x):
    # the definition: d(x, sigma(s)) - d(o, sigma(s)) as sigma(s) runs to
    # sigma's point at infinite parameter, on a doubling pair of far
    # points with one Richardson step
    v1, v2 = (dist(x, f) - dist(o, f) for f in (sigma.point_at(2.0 ** 19),
                                                 sigma.point_at(2.0 ** 20)))
    return 2.0 * v2 - v1


def test_busemann_limit_agrees_with_closed_form(rng):
    cfg = SpaceConfig(k=2)
    omega = infinity(2)
    sigma = canonical_rcircle(2)
    o = sigma.point_at(0.3)
    for _ in range(10):
        x = sample_point(cfg, rng)
        assert _busemann_limit(sigma, o, x) == pytest.approx(
            busemann(omega, sigma, o, x), abs=1e-6)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_busemann_is_minus_signed_arclength_on_transported_rlines(rng, k):
    # omega remote and omega a finite point of sigma two parameters behind
    # o; the points at o's parameter + h lie ahead of o exactly for h > 0.
    # Off the line, the value is the defining limit along sigma when omega
    # is infinity, and for a finite omega the value read in chart(omega, o)
    cfg = SpaceConfig(k=k)
    for _ in range(20):
        sigma = sample_rcircle(cfg, rng)
        b = float(rng.uniform(-1.0, 1.0))
        o = sigma.point_at(b)
        for omega in (sigma.point_at(math.inf), sigma.point_at(b - 2.0)):
            for h in (-1.5, -0.6, 0.3, 1.2):
                p = sigma.point_at(b + h)
                expected = -math.copysign(dist_w(omega, o, p), h)
                assert busemann(omega, sigma, o, p) == pytest.approx(expected, abs=1e-10)
            x = sample_point(cfg, rng)
            bx = busemann(omega, sigma, o, x)
            if omega.infinite:
                assert bx == pytest.approx(_busemann_limit(sigma, o, x), abs=1e-6)
            else:
                c = chart(omega, o)
                assert bx == pytest.approx(
                    busemann(infinity(k), sigma.transported(c), origin(k), c(x)),
                    rel=1e-11, abs=1e-11)


def test_busemann_orients_by_a_point_before_omega():
    # omega one half parameter ahead of o: the point at o's parameter + 1
    # lies past omega, so it cannot orient the line
    sigma = canonical_rcircle(2)
    omega, o = sigma.point_at(0.5), sigma.point_at(0.0)
    assert busemann(omega, sigma, o, sigma.point_at(0.25)) == pytest.approx(-2.0, abs=1e-12)
    assert busemann(omega, sigma, o, sigma.point_at(-0.5)) == pytest.approx(1.0, abs=1e-12)


def test_busemann_makes_six_moebius_actions(rng, monkeypatch):
    # the chart's anchor, o's and omega's parameters, the point ahead, its
    # and x's images
    sigma = sample_rcircle(SpaceConfig(k=3), rng)
    omega, o = sigma.point_at(-0.7), sigma.point_at(0.4)
    x = sample_point(SpaceConfig(k=3), rng)
    calls = []
    action = MoebiusMap.__call__
    monkeypatch.setattr(MoebiusMap, "__call__",
                        lambda self, p: calls.append(p) or action(self, p))
    busemann(omega, sigma, o, x)
    assert len(calls) == 6


@pytest.mark.parametrize("wrong", [
    lambda omega, sigma, o, x: 0.0,
    lambda omega, sigma, o, x: -busemann(omega, sigma, o, x),
], ids=["zero", "negated"])
def test_busemann_law_fails_on_a_wrong_busemann_function(monkeypatch, wrong):
    # the law's reference is the defining limit, read with dist alone, so
    # a constant or reversed Busemann function cannot pass it
    monkeypatch.setattr(foliation, "busemann", wrong)
    rep = run_suite(SuiteConfig(suite="foliation", k=3, trials=600, seed=0))
    law = {p.name: p for p in rep.properties}["busemann_affine_fibers"]
    assert law.error is None and not law.passed and law.max_residual > 1.0


def test_busemann_affine_along_rlines():
    omega = infinity(2)
    sigma = canonical_rcircle(2)
    o = origin(2)
    # a parallel horizontal line, sampled at equal parameter steps
    line = lambda s: point([s], 2.0 * s * 0.0 + 1.0)
    b = [busemann(omega, sigma, o, line(s)) for s in (-1.0, 0.0, 1.0)]
    assert b[0] + b[2] == pytest.approx(2 * b[1], abs=1e-10)


def test_vertical_shift_isometry():
    omega = infinity(2)
    gamma = vertical_shift(omega, 4.0)
    x = point([0.3], 1.0)
    assert chordal_sq(gamma(x), point([0.3], 5.0)) < 1e-14
    assert dist(x, gamma(x)) == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(vertical_shift(omega, 0.0).g, np.eye(3))
    y = point([-1.0 + 0.5j], -2.0)
    assert dist(gamma(x), gamma(y)) == pytest.approx(dist(x, y), rel=1e-13)


def test_vertical_shift_composition_law():
    omega = infinity(2)
    g1, g2 = vertical_shift(omega, 1.5), vertical_shift(omega, 2.5)
    comp = g2 @ g1
    x = point([0.7], 0.0)
    assert dist(x, comp(x)) ** 2 == pytest.approx(1.5 + 2.5, rel=1e-12)


def test_vertical_shift_finite_omega(rng):
    cfg = SpaceConfig(k=2)
    omega = point([0.5], 1.0)
    gamma = vertical_shift(omega, 2.0)
    x, y = sample_distinct_points(cfg, rng, 2)
    assert dist_w(omega, gamma(x), gamma(y)) == pytest.approx(
        dist_w(omega, x, y), rel=1e-9)
    assert dist_w(omega, x, gamma(x)) == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_pure_homothety_canonical_and_generic(rng):
    h = pure_homothety(origin(2), infinity(2), 2.0)
    assert chordal_sq(h(point([1], 1.0)), point([2], 4.0)) < 1e-13
    assert np.allclose(pure_homothety(origin(2), infinity(2), 1.0).g, np.eye(3))
    cfg = SpaceConfig(k=2)
    o, w = sample_distinct_points(cfg, rng, 2)
    lam = 1.7
    h = pure_homothety(o, w, lam)
    assert chordal_sq(h(o), o) < 1e-10
    assert chordal_sq(h(w), w) < 1e-10
    x, y = sample_distinct_points(cfg, rng, 2)
    assert dist_w(w, h(x), h(y)) == pytest.approx(lam * dist_w(w, x, y), rel=1e-9)
    with pytest.raises(GeometryError):
        pure_homothety(o, w, -1.0)


def test_lifts_reject_non_finite_input():
    for b1, b2, t in (([0.0], [math.inf], 0.0), ([math.nan], [1.0], 0.0),
                      ([1.0], [1j], math.inf)):
        with pytest.raises(GeometryError), np.errstate(invalid="ignore"):
            horizontal_lift(b1, b2, t)
    P = Polygon(vertices=[[0.0], [1.0], [1j]])
    for t0 in (math.inf, math.nan):
        with pytest.raises(GeometryError):
            tau(P, t0)


def test_horizontal_lift_formula():
    assert horizontal_lift([0.0], [1.0 + 1j], 0.5) == pytest.approx(0.5)
    assert horizontal_lift([1.0], [1j], 0.0) == pytest.approx(-2.0)
    t1 = horizontal_lift([0.3 + 0.1j], [-1.0], 0.0)
    assert horizontal_lift([-1.0], [0.3 + 0.1j], t1) == pytest.approx(0.0, abs=1e-15)


def test_polygon_validation():
    with pytest.raises(GeometryError):
        Polygon(vertices=np.array([[1.0 + 0j]]))
    with pytest.raises(GeometryError):
        Polygon(vertices=np.array([[1.0 + 0j], [1.0 + 0j], [2.0]]))
    Polygon(vertices=np.array([[0.0 + 0j], [1.0]]))  # degenerate loop is fine
    # non-finite vertices once gave tau (nan, nan) and a NaN signed area
    for bad in (math.nan, math.inf, complex(0.0, math.nan)):
        with pytest.raises(GeometryError, match="finite"):
            Polygon(vertices=np.array([[0.0 + 0j], [1.0], [bad]]))


def test_tau_unit_square():
    P = Polygon(vertices=np.array([[0], [1], [1 + 1j], [1j]], dtype=complex))
    t_end, disp = tau(P, 0.0)
    assert t_end == pytest.approx(-4.0, abs=1e-14)
    assert disp == pytest.approx(2.0, abs=1e-14)
    assert signed_area(P) == pytest.approx(1.0)
    # independence of the starting height
    t_end2, _ = tau(P, 5.0)
    assert t_end2 - 5.0 == pytest.approx(-4.0, abs=1e-14)


def test_tau_degenerate_loop():
    P = Polygon(vertices=np.array([[0.3 + 0.4j], [1.0 - 2.0j]]))
    t_end, disp = tau(P, 1.0)
    assert t_end == pytest.approx(1.0, abs=1e-15)
    assert disp == 0.0


def test_tau_additivity(rng):
    v = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    Q = Polygon(vertices=v)
    first = Polygon(vertices=v[0:3])
    second = Polygon(vertices=np.vstack([v[2:], v[:1]]))
    assert tau(Q, 0.0)[0] == pytest.approx(
        tau(first, 0.0)[0] + tau(second, 0.0)[0] - 0.0, abs=1e-12)


def test_tau_diagonal_split(rng):
    p, a, b = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3))
    T1 = Polygon(vertices=np.vstack([p, p + a, p + a + b]))
    T2 = Polygon(vertices=np.vstack([p, p + a + b, p + b]))
    assert tau(T1, 0.0)[0] == pytest.approx(tau(T2, 0.0)[0], abs=1e-12)


def test_tau_homothety_and_area_ratio(rng):
    v = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    P = Polygon(vertices=v)
    lam = 1.0 / math.sqrt(2.0)
    assert tau(P.scaled(lam), 0.0)[1] == pytest.approx(lam * tau(P, 0.0)[1], rel=1e-12)
    pts = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    vv, y, z = pts
    for ratio in (0.5, 1.0 / math.pi):
        x = vv + ratio * (z - vv)
        T = Polygon(vertices=np.vstack([vv, y, z]))
        Pr = Polygon(vertices=np.vstack([x, y, z]))
        factor = np.linalg.norm(z - x) / np.linalg.norm(z - vv)
        assert tau(Pr, 0.0)[1] ** 2 == pytest.approx(
            factor * tau(T, 0.0)[1] ** 2, rel=1e-10)


def test_signed_area_requires_first_coordinate_line():
    P = Polygon(vertices=np.array([[0, 0], [1, 1], [1j, 0]], dtype=complex))
    with pytest.raises(GeometryError):
        signed_area(P)
