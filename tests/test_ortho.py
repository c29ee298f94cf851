"""Orthogonal complements, mutual orthogonality, joins, quartic roots."""

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
    origin,
    point,
)
from chgeom.circles import (
    MEMBERSHIP_TOL,
    Sphere,
    ccircle_through,
    conjugate_pole,
    reflection_in_ccircle,
)
from chgeom.ortho import (
    OrthoComplement,
    are_orthogonal,
    canonical_fiber,
    canonical_involution,
    fixset_psi_contains,
    fixset_psi_residual,
    intercept_distances,
    join_decompose,
    ortho_contains,
    ortho_membership_residuals,
    positive_root,
    standard_rcircle,
)
from chgeom.properties import fixset_equals_intersection
from chgeom.sampling import (
    canonical_chain,
    sample_ortho_complement,
    sample_orthopair,
    sample_point,
)


@pytest.fixture
def canonical_complement():
    F = canonical_chain(2)
    eta = canonical_involution(F, infinity(2), origin(2), 1.0)
    return OrthoComplement(F=F, eta=eta)


def test_canonical_involution_action(canonical_complement):
    canonical_complement.validate()
    eta = canonical_complement.eta
    assert chordal_sq(eta(infinity(2)), origin(2)) < 1e-15
    assert chordal_sq(eta(point([0], 1.0)), point([0], -1.0)) < 1e-14
    assert chordal_sq(eta(point([0], 2.0)), point([0], -0.5)) < 1e-14
    with pytest.raises(GeometryError):
        canonical_involution(canonical_complement.F, infinity(2), origin(2), -1.0)


def test_chart_and_radius(canonical_complement):
    _, rho = canonical_complement.chart_and_radius
    assert rho == pytest.approx(1.0, abs=1e-12)


def test_ortho_membership_canonical(canonical_complement):
    A = canonical_complement
    for theta in (0.0, 1.0, 2.5):
        u = point([np.exp(1j * theta)], 0.0)
        r3, rs = ortho_membership_residuals(A, u)
        assert r3 < 1e-10 and rs < 1e-10
        assert ortho_contains(A, u)
    for u in (point([1.5], 0.0), point([1], 0.5), point([0.2], 0.0)):
        r3, rs = ortho_membership_residuals(A, u)
        assert r3 > 1e-4 and rs > 1e-4
        assert not ortho_contains(A, u)
    with pytest.raises(GeometryError):
        ortho_membership_residuals(A, point([0], 1.0))


def test_ortho_contains_reads_only_the_three_point_residual(space, rng, monkeypatch):
    A = sample_ortho_complement(space, rng)
    on = A.sample_points(3, rng)
    on.append(conjugate_pole(A.F, on[0]))
    off = [u for u in (sample_point(space, rng) for _ in range(8))
           if A.F.membership_residual(u) > 1e-3]
    expected = [ortho_membership_residuals(A, u)[0] <= MEMBERSHIP_TOL for u in on + off]
    assert expected == [True] * len(on) + [False] * len(off) and off
    calls = []
    original = Sphere.membership_residual
    monkeypatch.setattr(Sphere, "membership_residual",
                        lambda s, p: calls.append(p) or original(s, p))
    assert [ortho_contains(A, u) for u in on + off] == expected
    assert calls == []


def test_fixset_law_evaluates_no_sphere_residual(monkeypatch):
    calls = []
    original = Sphere.membership_residual
    monkeypatch.setattr(Sphere, "membership_residual",
                        lambda s, p: calls.append(p) or original(s, p))
    cfg = SpaceConfig(k=3)
    for i in range(5):
        fixset_equals_intersection(cfg, np.random.default_rng(i))
    assert calls == []


def test_ortho_membership_tests_agree(space, rng):
    A = sample_ortho_complement(space, rng)
    u = A.sample_points(1, rng)[0]
    r3, rs = ortho_membership_residuals(A, u)
    assert r3 < 1e-8 and rs < 1e-8
    v = conjugate_pole(A.F, u)
    r3v, rsv = ortho_membership_residuals(A, v)
    assert r3v < 1e-8 and rsv < 1e-8


def test_canonical_fiber(canonical_complement, rng):
    A = canonical_complement
    u = point([1], 0.0)
    fib = canonical_fiber(A, u)
    assert fib.membership_residual(point([-1], 0.0)) < 1e-12
    assert fib.membership_residual(point([np.exp(0.7j)], 0.0)) < 1e-12
    phi = reflection_in_ccircle(A.F)
    for tau in (0.0, 1.0, math.inf):
        p = fib.point_at(tau)
        assert fib.membership_residual(phi(p)) < 1e-10
    with pytest.raises(GeometryError):
        canonical_fiber(A, point([1.7], 0.0))


def test_are_orthogonal():
    F = canonical_chain(2)
    F1 = ccircle_through(point([1], 0.0), point([-1], 0.0))
    assert are_orthogonal(F, F1)
    assert are_orthogonal(F1, F)
    assert not are_orthogonal(F, F)
    tilted = ccircle_through(point([1], 0.0), point([0.5], 1.0))
    assert not are_orthogonal(F, tilted)


def test_orthopair_commutation(space, rng):
    F, Fp = sample_orthopair(space, rng)
    assert are_orthogonal(F, Fp) and are_orthogonal(Fp, F)
    phi, phip = reflection_in_ccircle(F), reflection_in_ccircle(Fp)
    for _ in range(5):
        x = sample_point(space, rng)
        assert chordal_sq(phi(phip(x)), phip(phi(x))) < 1e-10


def test_fixset_intersection_k3(rng):
    cfg = SpaceConfig(k=3)
    F = canonical_chain(3)
    e1, e2 = np.eye(2)[0], np.eye(2)[1]
    Fp = ccircle_through(point(e1, 0.0), point(-e1, 0.0))
    u = point(e2, 0.0)
    assert fixset_psi_contains(F, Fp, u)
    A = OrthoComplement(F=F, eta=reflection_in_ccircle(Fp))
    Ap = OrthoComplement(F=Fp, eta=reflection_in_ccircle(F))
    assert ortho_contains(A, u) and ortho_contains(Ap, u)
    off = point(0.5 * e2 + 0.2 * e1, 0.3)
    assert fixset_psi_residual(F, Fp, off) > 1e-4
    assert not ortho_contains(A, off)


def test_nonfiber_chain_exists_k3():
    # a chain inside the complement whose points are not conjugate pairs
    F = canonical_chain(3)
    eta = canonical_involution(F, infinity(3), origin(3), 1.0)
    A = OrthoComplement(F=F, eta=eta)
    e1, e2 = np.eye(2)[0], np.eye(2)[1]
    C = ccircle_through(point(e1, 0.0), point(e2, 0.0))
    for tau in (-1.0, 0.0, 1.0, math.inf):
        assert ortho_contains(A, C.point_at(tau), tol=1e-8)
    for tau in (0.0, 1.0):
        p = C.point_at(tau)
        assert C.membership_residual(conjugate_pole(F, p)) > 1e-3


def test_intercept_distances_symmetric_branch():
    X, Y, c = intercept_distances(0.6, 0.8, (0.6 ** 4 + 0.8 ** 4) ** 0.25)
    assert c == pytest.approx(0.0, abs=1e-15)
    assert X == pytest.approx(Y, rel=1e-14)
    X2, Y2, c2 = intercept_distances(1.3, 0.4, 0.9)
    assert X2 * Y2 == pytest.approx(0.81, rel=1e-14)
    assert X2 ** 2 - Y2 ** 2 == pytest.approx(c2, rel=1e-12)


def test_intercept_distances_reject_non_finite_data():
    for data in ((1.0, 1.0, math.inf), (math.inf, 1.0, 1.0), (1.0, math.nan, 1.0)):
        with pytest.raises(GeometryError, match="positive and finite"):
            intercept_distances(*data)
    # finite positive data whose arithmetic overflows or underflows
    for data in ((1e100, 1.0, 1.0), (1.0, 1e-200, 1.0)):
        with pytest.raises(GeometryError, match="floating-point range"):
            intercept_distances(*data)


def test_join_decompose_canonical(canonical_complement):
    A = canonical_complement
    u = point([0.5], 0.5)
    dec = join_decompose(A, u, infinity(2))
    assert dec.rho == pytest.approx(1.0, abs=1e-12)
    assert dec.a == pytest.approx(0.5, abs=1e-12)
    assert dec.b == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert dist_w(infinity(2), dec.w, u) == pytest.approx(dec.r, rel=1e-10)
    assert dec.sigma.membership_residual(u) < 1e-10
    assert dec.sigma.membership_residual(dec.y) < 1e-10
    assert chordal_sq(dec.y, A.eta(dec.x)) < 1e-12
    # the chain intercept keeps the projection between the anchor and itself
    assert dec.x.t > 0
    # on the R-line through o the pair degenerates to (o, omega)
    u = point([0.5], 0.0)
    dec = join_decompose(A, u, infinity(2))
    assert dec.yo == math.inf
    assert chordal_sq(dec.x, origin(2)) < 1e-15
    assert dist_w(infinity(2), dec.w, u) == pytest.approx(dec.r, rel=1e-12)
    assert dec.sigma.membership_residual(u) < 1e-12


def test_join_decompose_generic(space, rng):
    A = sample_ortho_complement(space, rng)
    omega = A.F.point_at(0.4)
    for _ in range(5):
        u = sample_point(space, rng)
        if A.F.membership_residual(u) < 1e-3:
            continue
        dec = join_decompose(A, u, omega)
        if dec.b < 1e-6:
            continue
        assert dist_w(omega, dec.w, u) == pytest.approx(dec.r, rel=1e-9)
        assert dist_w(omega, dec.w, dec.x) == pytest.approx(dec.r, rel=1e-9)
        assert dist_w(omega, dec.w, dec.y) == pytest.approx(dec.r, rel=1e-9)
        assert dec.sigma.membership_residual(u) < 1e-8


def test_join_decompose_rejects_chain_points(canonical_complement):
    A = canonical_complement
    with pytest.raises(GeometryError):
        join_decompose(A, point([0], 2.0), infinity(2))


def test_positive_root_values():
    assert positive_root(1.0, 1.0, 17.0) == pytest.approx(1.0, rel=1e-14)
    # boundary behavior: d just above c b^4 gives a root near zero
    s = positive_root(1.0, 2.0, 2.0 + 1e-10)
    assert 0 < s < 1e-3
    with pytest.raises(GeometryError):
        positive_root(1.0, 1.0, 0.5)  # c b^4 - d > 0
    with pytest.raises(GeometryError):
        positive_root(-1.0, 1.0, 17.0)


def test_positive_root_against_polynomial_solver(rng):
    for _ in range(50):
        b = math.exp(rng.uniform(-1, 1))
        c = math.exp(rng.uniform(-1, 1))
        d = c * b ** 4 * (1.0 + math.exp(rng.uniform(-1, 2)))
        s0 = positive_root(b, c, d)
        roots = np.roots([1 + c, 4 * c * b, 6 * c * b * b, 4 * c * b ** 3,
                          c * b ** 4 - d])
        real_pos = [r.real for r in roots if abs(r.imag) < 1e-8 and r.real > 0]
        assert len(real_pos) == 1
        assert s0 == pytest.approx(real_pos[0], rel=1e-10)


def test_standard_rcircle_canonical(canonical_complement):
    A = canonical_complement
    std = standard_rcircle(A, point([1], 0.0), infinity(2))
    assert chordal_sq(std.v, origin(2)) < 1e-12
    assert chordal_sq(std.y, point([-1], 0.0)) < 1e-12
    assert harmonicity_residual(std.u, std.x, std.v, std.y) < 1e-10
    assert std.sigma.membership_residual(std.y) < 1e-12
    with pytest.raises(GeometryError):
        standard_rcircle(A, point([0], 1.0), infinity(2))
    # x must lie on the complement
    with pytest.raises(GeometryError, match="orthogonal subspace"):
        standard_rcircle(A, point([2], 0.0), infinity(2))


def test_standard_rcircles_meet_in_chain_only(space, rng):
    A = sample_ortho_complement(space, rng)
    u = A.F.point_at(0.9)
    x1, x2 = A.sample_points(2, rng)
    if chordal_sq(x1, x2) < 1e-4 or chordal_sq(x1, conjugate_pole(A.F, x2)) < 1e-4:
        pytest.skip("sampled subspace points coincide")
    s1 = standard_rcircle(A, x1, u)
    s2 = standard_rcircle(A, x2, u)
    assert s2.sigma.membership_residual(s1.u) < 1e-8
    assert s2.sigma.membership_residual(s1.v) < 1e-8
    for s in (-1.3, 0.6, 1.9):
        p = s1.sigma.point_at(s)
        if min(chordal_sq(p, s1.u), chordal_sq(p, s1.v)) < 1e-3:
            continue
        assert s2.sigma.membership_residual(p) > 1e-6


def test_involution_validate_rejects_offenders(canonical_complement):
    F = canonical_complement.F
    from chgeom.projective import make_dilation

    with pytest.raises(GeometryError):
        OrthoComplement(F=F, eta=make_dilation(2.0, 2)).validate()


def test_sample_points_refuses_squeezed_complement(rng):
    # at canonical radius 1e-3 every complement point lies within the
    # chain margin, so no sample may be handed out
    F = canonical_chain(3)
    A = OrthoComplement(F, canonical_involution(F, infinity(3), origin(3), 1e-3))
    assert A.chart_and_radius[1] <= 1e-3
    with pytest.raises(GeometryError):
        A.sample_points(1, rng)
