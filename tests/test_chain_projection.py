"""The chain projection from null lifts: ``mu``, ``eta``, the chart anchor, complement membership.

The reference below is the chart route these replaced: pick a chain
point far from omega, build the chart sending omega to infinity and that
point to the origin, and read the projection as the fiber point (0, t_u).
"""

import math

import numpy as np
import pytest

from chgeom.circles import (
    MEMBERSHIP_TOL,
    OFF_CIRCLE_MARGIN,
    _chain_point_away_from,
    eta,
    mu,
)
from chgeom.core import GeometryError, SpaceConfig, chordal_sq, dist, infinity, point
from chgeom.ortho import _three_point_residual
from chgeom.projective import MoebiusMap, chart
from chgeom.sampling import (
    canonical_chain,
    random_moebius,
    sample_chain,
    sample_ortho_complement,
    sample_point,
)


def eta_by_chart(F, u, omega):
    """eta(F, u, omega) by an anchor search over five chain points and a chart."""
    anchors = [F.point_at(tau) for tau in (math.inf, 0.0, 1.0, -1.0, 3.0)]
    o = max(anchors, key=lambda q: dist(q, omega) if math.isfinite(dist(q, omega)) else 1e30)
    n = chart(omega, o)
    return n.inverse()(point(np.zeros(F.k - 1), n(u).t))


def off_chain_points(cfg, rng, F, n):
    out = []
    while len(out) < n:
        u = sample_point(cfg, rng)
        if F.membership_residual(u) > 1e-3:
            out.append(u)
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_eta_and_mu_match_the_chart_route(rng, k):
    cfg = SpaceConfig(k=k)
    worst = 0.0
    for _ in range(6):
        F = sample_chain(cfg, rng)
        for u in off_chain_points(cfg, rng, F, 4):
            for tau in (math.inf, -1.3, 0.0, 0.4, 2.5):
                omega = F.point_at(tau)
                expected = eta_by_chart(F, u, omega)
                worst = max(worst, chordal_sq(eta(F, u, omega), expected),
                            chordal_sq(mu(F, omega, u), expected))
    assert worst <= 1e-12


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_three_point_residual_matches_the_chart_route(rng, k):
    cfg = SpaceConfig(k=k)
    for _ in range(3):
        A = sample_ortho_complement(cfg, rng)
        for u in A.sample_points(3, rng) + off_chain_points(cfg, rng, A.F, 3):
            expected = max(chordal_sq(eta_by_chart(A.F, u, w), A.eta(w))
                           for w in A.F.sample_points(3))
            assert abs(_three_point_residual(A, u) - expected) <= 1e-12


def test_chart_anchor_is_the_chain_point_at_infinity_or_zero(space, rng):
    F = sample_chain(space, rng)
    ends = (F.point_at(math.inf), F.point_at(0.0))
    for avoid in [*ends, F.point_at(1.0), sample_point(space, rng)]:
        q = _chain_point_away_from(F, avoid)
        assert min(chordal_sq(q, e) for e in ends) <= 1e-24
        assert chordal_sq(q, avoid) > 1e-3
    F = canonical_chain(space.k)
    assert _chain_point_away_from(F, infinity(space.k)).t == 0.0
    assert _chain_point_away_from(F, point(np.zeros(space.k - 1), 0.0)).infinite


def test_projection_makes_no_moebius_action(space, rng, monkeypatch):
    A = sample_ortho_complement(space, rng)
    F = A.F
    omega, w = F.point_at(0.7), F.point_at(-0.2)
    u = off_chain_points(space, rng, F, 1)[0]
    _three_point_residual(A, u)  # the membership data is built on first use
    calls = []
    action = MoebiusMap.__call__
    monkeypatch.setattr(MoebiusMap, "__call__", lambda g, p: calls.append(p) or action(g, p))
    eta(F, u, omega)
    mu(F, omega, u)
    mu(F, omega, w)
    _chain_point_away_from(F, omega)
    _three_point_residual(A, u)
    assert calls == []


def test_mu_checks_omega_also_for_points_on_the_chain():
    F = canonical_chain(3)
    omega = point([3, 1], 2.0)
    assert F.membership_residual(omega) > 0.1
    with pytest.raises(GeometryError, match="omega must lie on the chain"):
        mu(F, omega, F.point_at(0.5))


def test_mu_retracts_points_between_the_tolerance_and_the_margin(rng):
    g = random_moebius(SpaceConfig(k=3), rng)
    F = canonical_chain(3).transported(g)
    for eps in (1e-4, 3e-4, 6e-4):
        u = g(point([eps, 0.0], 0.5))
        r = F.membership_residual(u)
        if MEMBERSHIP_TOL < r <= OFF_CIRCLE_MARGIN:
            break
    else:
        pytest.fail("no probe point lands between the tolerance and the margin")
    omega = F.point_at(math.inf)
    assert chordal_sq(mu(F, omega, u), F.point_at(0.5)) < 1e-12
    assert F.membership_residual(mu(F, omega, u)) < 1e-20
    with pytest.raises(GeometryError, match="u must lie off the chain"):
        eta(F, u, omega)
