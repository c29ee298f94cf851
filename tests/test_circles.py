"""Chains, R-circles, projections, involutions, poles, spheres."""

import math

import numpy as np
import pytest

from chgeom.core import (
    GeometryError,
    SpaceConfig,
    chordal_sq,
    dist_w,
    harmonicity_residual,
    infinity,
    is_harmonic,
    origin,
    point,
    crt,
)
from chgeom.circles import (
    MEMBERSHIP_TOL,
    ccircle_through,
    chain_chart,
    circle_pointset_residual,
    conjugate_pole,
    eta,
    mu,
    rcircle_through_hitting,
    reflection_in_ccircle,
    sphere_between,
    unitary_with_first_column,
)
from chgeom.projective import MoebiusMap, chart
from chgeom.sampling import (
    canonical_chain,
    random_moebius,
    sample_chain,
    sample_distinct_points,
    sample_point,
    sample_rcircle,
)


def off_chain_point(cfg, rng, F):
    while True:
        u = sample_point(cfg, rng)
        if F.membership_residual(u) > 1e-3:
            return u


def test_normalize_to_infinity_cases():
    assert np.allclose(chart(infinity(2)).g, np.eye(3))
    g = chart(origin(2))
    assert g(origin(2)).infinite
    p = point([1], 1.0)
    h = chart(p)
    assert h(p).infinite
    assert h.form_residual() < 1e-12
    # with a second point: p to infinity, q to the origin
    q = point([0.5 - 1j], -2.0)
    c = chart(p, q)
    assert c(p).infinite
    assert chordal_sq(c(q), origin(2)) < 1e-14
    assert chordal_sq(chart(infinity(2), q)(q), origin(2)) < 1e-14
    with pytest.raises(GeometryError):
        chart(p, p)


def test_unitary_completion(rng):
    for m in (1, 2, 3):
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w /= np.linalg.norm(w)
        U = unitary_with_first_column(w)
        assert np.allclose(U.conj().T @ U, np.eye(m), atol=1e-12)
        assert np.allclose(U[:, 0], w, atol=1e-12)


def test_canonical_chain_membership():
    F = canonical_chain(2)
    assert F.membership_residual(point([0], 5.0)) < 1e-28
    assert F.membership_residual(infinity(2)) < 1e-28
    assert F.membership_residual(point([1], 0.0)) > 1e-2


def test_ccircle_through_infinity_is_vertical_line():
    q = point([0.5 + 0.5j], 1.0)
    F = ccircle_through(infinity(2), q)
    for t in (-3.0, 0.0, 7.0):
        assert F.membership_residual(point(q.z, t)) < MEMBERSHIP_TOL
    assert F.membership_residual(point([0.5 + 0.4j], 1.0)) > 1e-4


def test_ccircle_uniqueness(space, rng):
    p, q = sample_distinct_points(space, rng, 2)
    F = ccircle_through(p, q)
    assert F.membership_residual(p) < MEMBERSHIP_TOL
    assert F.membership_residual(q) < MEMBERSHIP_TOL
    F2 = ccircle_through(F.point_at(0.6), F.point_at(-1.9))
    assert circle_pointset_residual(F, F2) < MEMBERSHIP_TOL
    with pytest.raises(GeometryError):
        ccircle_through(p, p)


def test_rcircle_through_hitting_chart_formula():
    F = canonical_chain(2)
    u = point([1], 5.0)
    sigma = rcircle_through_hitting(F, infinity(2), u)
    hit = mu(F, infinity(2), u)
    assert chordal_sq(hit, point([0], 5.0)) < 1e-14
    assert sigma.membership_residual(u) < 1e-20
    assert sigma.membership_residual(hit) < 1e-20
    assert sigma.membership_residual(infinity(2)) < 1e-20


def test_rcircle_hit_with_imaginary_cross_term():
    # z_u and the direction to the axis have no imaginary pairing, so the
    # hit keeps the height of u
    F = canonical_chain(3)
    u = point([1.0, 0.0], 0.0)
    assert chordal_sq(mu(F, infinity(3), u), origin(3)) < 1e-14


def test_rcircle_through_hitting_finite_omega(space, rng):
    F = sample_chain(space, rng)
    omega = F.point_at(0.8)
    u = off_chain_point(space, rng, F)
    sigma = rcircle_through_hitting(F, omega, u)
    hit = mu(F, omega, u)
    assert sigma.membership_residual(omega) < MEMBERSHIP_TOL
    assert sigma.membership_residual(u) < MEMBERSHIP_TOL
    assert F.membership_residual(hit) < MEMBERSHIP_TOL
    assert sigma.membership_residual(hit) < MEMBERSHIP_TOL
    with pytest.raises(GeometryError):
        rcircle_through_hitting(F, omega, F.point_at(1.3))
    with pytest.raises(GeometryError):
        rcircle_through_hitting(F, u, u)


def test_circle_constructions_map_no_extra_points(space, rng, monkeypatch):
    # transports only compose maps, and rcircle_through_hitting maps no
    # point beyond the two its chain chart needs (the chart anchor and u)
    F = sample_chain(space, rng)
    sigma = sample_rcircle(space, rng)
    g = random_moebius(space, rng)
    omega = F.point_at(0.8)
    u = off_chain_point(space, rng, F)
    calls = []
    action = MoebiusMap.__call__

    def counting(self, p):
        calls.append(p)
        return action(self, p)

    monkeypatch.setattr(MoebiusMap, "__call__", counting)
    F.transported(g)
    sigma.transported(g)
    assert calls == []
    rcircle_through_hitting(F, omega, u)
    assert len(calls) == 2


def test_transported_keeps_the_circle_class(space, rng):
    g = random_moebius(space, rng)
    for circle in (sample_chain(space, rng), sample_rcircle(space, rng)):
        image = circle.transported(g)
        assert type(image) is type(circle)
        for s in (0.6, math.inf):
            assert chordal_sq(image.point_at(s), g(circle.point_at(s))) < 1e-12


def test_mu_retraction_and_distance_formula(space, rng):
    F = sample_chain(space, rng)
    omega = F.point_at(-0.4)
    w = F.point_at(1.7)
    assert chordal_sq(mu(F, omega, w), w) < 1e-12
    u = off_chain_point(space, rng, F)
    z = mu(F, omega, u)
    o = F.point_at(0.9)
    r = dist_w(omega, o, u)
    a = dist_w(omega, z, u)
    b = dist_w(omega, o, z)
    assert r ** 4 == pytest.approx(a ** 4 + b ** 4, rel=1e-10)


def test_eta_examples_and_involution(space, rng):
    F = canonical_chain(space.k)
    u = point(np.eye(space.k - 1)[0], 0.0)
    assert chordal_sq(eta(F, u, infinity(space.k)), origin(space.k)) < 1e-14
    G = sample_chain(space, rng)
    v = off_chain_point(space, rng, G)
    for tau in (-1.2, 0.3, 2.0):
        w = G.point_at(tau)
        assert chordal_sq(eta(G, v, eta(G, v, w)), w) < 1e-10


def test_eta_is_moebius_on_chain(space, rng):
    G = sample_chain(space, rng)
    v = off_chain_point(space, rng, G)
    pts = [G.point_at(t) for t in (-1.5, -0.2, 0.9, 2.2)]
    images = [eta(G, v, p) for p in pts]
    assert crt(*pts).max_difference(crt(*images)) < 1e-10


def test_conjugate_pole_canonical():
    F = canonical_chain(2)
    u = point([1], 0.0)
    v = conjugate_pole(F, u)
    assert chordal_sq(v, point([-1], 0.0)) < 1e-15
    assert is_harmonic(origin(2), u, infinity(2), v)
    with pytest.raises(GeometryError):
        conjugate_pole(F, point([0], 2.0))


def test_conjugate_pole_cocircular(space, rng):
    F = sample_chain(space, rng)
    u = off_chain_point(space, rng, F)
    v = conjugate_pole(F, u)
    for tau in (-1.0, 0.5, 1.5):
        x = F.point_at(tau)
        y = eta(F, u, x)
        assert harmonicity_residual(x, u, y, v) < 1e-9
        sigma = rcircle_through_hitting(F, x, u)
        assert sigma.membership_residual(v) < MEMBERSHIP_TOL
        assert chordal_sq(eta(F, v, x), y) < 1e-10


def test_reflection_fixes_chain_and_swaps_poles(space, rng):
    F = sample_chain(space, rng)
    phi = reflection_in_ccircle(F)
    for tau in (0.0, 1.0, math.inf):
        p = F.point_at(tau)
        assert chordal_sq(phi(p), p) < 1e-12
    u = off_chain_point(space, rng, F)
    assert chordal_sq(phi(phi(u)), u) < 1e-12
    assert chordal_sq(phi(u), conjugate_pole(F, u)) < 1e-14


def test_reflection_canonical_chart_action():
    F = canonical_chain(2)
    phi = reflection_in_ccircle(F)
    assert chordal_sq(phi(point([1], 1.0)), point([-1], 1.0)) < 1e-15


def test_reflection_preserves_crossing_rcircles(space, rng):
    F = sample_chain(space, rng)
    phi = reflection_in_ccircle(F)
    u = off_chain_point(space, rng, F)
    sigma = rcircle_through_hitting(F, F.point_at(0.2), u)
    for s in (-1.0, 0.4, 2.0, math.inf):
        assert sigma.membership_residual(phi(sigma.point_at(s))) < MEMBERSHIP_TOL


def test_sphere_between_gauge_sphere():
    S = sphere_between(origin(2), infinity(2), point([1], 0.0))
    assert S.contains(point([0], 1.0))     # gauge 1
    assert S.contains(point([1], 0.0))     # the anchor itself
    assert not S.contains(point([0], 4.0))
    assert S.radius() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(GeometryError):
        sphere_between(origin(2), origin(2), point([1], 0.0))
    with pytest.raises(GeometryError):
        sphere_between(origin(2), infinity(2), origin(2))


def test_sphere_bisector_form(space, rng):
    u, v, x = sample_distinct_points(space, rng, 3)
    S = sphere_between(u, v, x)
    pts = S.sample_points(5, rng)
    for p in pts:
        assert S.membership_residual(p) < 1e-10
    w = pts[0]
    for p in pts[1:]:
        assert dist_w(w, p, u) == pytest.approx(dist_w(w, p, v), rel=1e-9)


def test_filling_sphere_rcircles(space, rng):
    omega, omega_p = sample_distinct_points(space, rng, 2)
    F = ccircle_through(omega, omega_p)
    c = chain_chart(F, omega_p, omega)
    cinv = c.inverse()
    m = space.k - 1
    x = cinv(point(np.zeros(m), 1.3))
    x_opp = cinv(point(np.zeros(m), -1.3))
    S = sphere_between(omega, omega_p, x)
    assert S.membership_residual(x_opp) < 1e-10
    for u in S.sample_points(3, rng):
        if F.membership_residual(u) < 1e-3:
            continue
        assert chordal_sq(eta(F, u, x), x_opp) < 1e-10
        sigma = rcircle_through_hitting(F, x, u)
        assert sigma.membership_residual(x_opp) < MEMBERSHIP_TOL


def test_rcircle_chain_two_point_bound(space, rng):
    sigma = sample_rcircle(space, rng)
    F = ccircle_through(sigma.point_at(-0.7), sigma.point_at(1.1))
    hits = 0
    for s in np.tan(np.linspace(-1.5, 1.5, 301)):
        if F.membership_residual(sigma.point_at(float(s))) < 1e-6:
            hits += 1
    # grid points land near the two crossings at most a few times each
    assert hits <= 8


def test_circle_k1_degenerate():
    cfg = SpaceConfig(k=1)
    F = ccircle_through(origin(1), point([], 1.0))
    # for k = 1 every point lies on the unique chain
    assert F.membership_residual(point([], -2.0)) < 1e-20
    with pytest.raises(GeometryError):
        rcircle_through_hitting(F, origin(1), point([], 3.0))
    # with no horizontal directions the sphere through t = 1 is the pair t = +-1
    S = sphere_between(origin(1), infinity(1), point([], 1.0))
    ts = [p.t for p in S.sample_points(8, np.random.default_rng(0))]
    assert all(abs(abs(t) - 1.0) < 1e-12 for t in ts)
    assert min(ts) < 0.0 < max(ts)
