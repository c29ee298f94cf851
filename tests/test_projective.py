"""Null-vector model: lifts, drops, generators, form preservation."""

import math

import numpy as np
import pytest

from chgeom.core import (
    GeometryError,
    SpaceConfig,
    chordal_sq,
    dist,
    gauge,
    heis_mul,
    infinity,
    origin,
    point,
    crt,
)
from chgeom.projective import (
    MoebiusMap,
    axis_reflection,
    crt_projective,
    distance_pairing_constant,
    drop,
    form_matrix,
    herm,
    lift,
    make_dilation,
    make_inversion,
    make_rotation,
    make_translation,
)
from chgeom.sampling import random_moebius, sample_distinct_points, sample_point


def test_form_matrix_is_involution():
    for k in (1, 2, 3, 4):
        H = form_matrix(k)
        assert np.allclose(H @ H, np.eye(k + 1))


def test_lift_is_null_and_unit(rng):
    cfg = SpaceConfig(k=3)
    for _ in range(100):
        X = lift(sample_point(cfg, rng))
        assert abs(herm(X, X)) < 1e-14
        assert np.linalg.norm(X) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(lift(infinity(3)), np.eye(4)[0])


def test_calibration_constant_stable_across_dimensions():
    for k in (1, 2, 3, 4, 5):
        assert distance_pairing_constant(k) == pytest.approx(2.0, abs=1e-13)


def test_calibration_constant_is_cached_per_dimension():
    distance_pairing_constant(3)
    hits = distance_pairing_constant.cache_info().hits
    assert distance_pairing_constant(3) == pytest.approx(2.0, abs=1e-13)
    assert distance_pairing_constant.cache_info().hits == hits + 1


def test_calibration_anchors():
    # the three anchor distances pinned by the calibration
    W = lift(infinity(2))
    for p, q, d_ref in [
        (origin(2), point([0], 4.0), 2.0),
        (origin(2), point([1], 0.0), 1.0),
        (point([1], 0.0), point([2], 0.0), 1.0),
    ]:
        Xp, Xq = lift(p), lift(q)
        d_sq = 2.0 * abs(herm(Xp, Xq)) / (abs(herm(Xp, W)) * abs(herm(Xq, W)))
        assert math.sqrt(d_sq) == pytest.approx(d_ref, abs=1e-13)


def test_drop_roundtrip(rng):
    cfg = SpaceConfig(k=3)
    for _ in range(200):
        p = sample_point(cfg, rng)
        assert chordal_sq(drop(lift(p)), p) < 1e-14
    assert drop(lift(infinity(3))).infinite
    assert drop(np.eye(4)[0]).infinite


def test_drop_projective_invariance(rng):
    cfg = SpaceConfig(k=2)
    p = sample_point(cfg, rng)
    X = lift(p)
    lam = 0.3 - 1.7j
    assert chordal_sq(drop(lam * X), p) < 1e-14


def test_drop_rejects_non_null():
    with pytest.raises(GeometryError):
        drop(np.array([1.0, 0.0, 1.0], dtype=complex))
    with pytest.raises(GeometryError):
        drop(np.zeros(3, dtype=complex))
    # non-finite entries: the null test compares NaN or inf and passes them
    for bad in (math.inf, -math.inf, math.nan):
        for X in ([bad, 0.0, 1.0], [0.0, complex(0.0, bad), 1.0], [1.0, 0.0, bad]):
            with pytest.raises(GeometryError, match="non-finite"):
                drop(np.array(X, dtype=complex))
    # a 2-d array once raised AttributeError from the null test
    for X in (np.zeros((2, 3)), np.ones((1, 3), dtype=complex), np.array(1.0 + 0j)):
        with pytest.raises(GeometryError, match="1-d"):
            drop(X)


def test_translation_is_left_multiplication(rng):
    cfg = SpaceConfig(k=3)
    z0 = sample_point(cfg, rng)
    T = make_translation(z0.z, z0.t)
    assert chordal_sq(T(origin(3)), z0) < 1e-14
    p = sample_point(cfg, rng)
    assert chordal_sq(T(p), heis_mul(z0, p)) < 1e-13


def test_rotation_fixes_axis():
    R = make_rotation(-np.eye(1))
    for t in (-2.0, 0.0, 3.5):
        p = point([0], t)
        assert chordal_sq(R(p), p) < 1e-15
    assert chordal_sq(R(point([1], 1.0)), point([-1], 1.0)) < 1e-15
    with pytest.raises(GeometryError):
        make_rotation(np.array([[2.0]]))


def test_rotation_rejects_non_finite_matrix():
    with pytest.raises(GeometryError, match="not unitary"):
        make_rotation(np.array([[math.nan]]))


def test_dilation_rejects_non_finite_coefficient():
    # 1e-320 is subnormal: its reciprocal overflows to infinity
    for lam in (math.inf, math.nan, 1e-320):
        with pytest.raises(GeometryError, match="positive and finite"):
            make_dilation(lam, 2)


def test_generators_reject_dimensions_below_one():
    # k = 0 once built 1x1 maps with form residual 0.75
    for k in (0, -1):
        with pytest.raises(GeometryError, match="dimension"):
            make_dilation(2.0, k)
        with pytest.raises(GeometryError, match="dimension"):
            make_inversion(k)


def test_translation_rejects_non_finite_data():
    # a NaN or infinite entry once built a map that failed only later, in drop
    for z0, t0 in (([math.nan], 0.0), ([0.5], math.inf), ([1e200], 0.0),
                   ([0.5j], math.nan)):
        with pytest.raises(GeometryError, match="finite"):
            make_translation(np.array(z0), t0)


def test_dilation_action_and_scaling():
    D = make_dilation(2.0, 2)
    assert chordal_sq(D(point([1], 1.0)), point([2], 4.0)) < 1e-14
    p, q = point([0.5], -1.0), point([-0.25j], 2.0)
    assert dist(D(p), D(q)) == pytest.approx(2.0 * dist(p, q), rel=1e-13)
    assert dist(D(p), origin(2)) == pytest.approx(2.0 * dist(p, origin(2)), rel=1e-13)
    with pytest.raises(GeometryError):
        make_dilation(0.0, 2)


def test_inversion_metric_contract(rng):
    cfg = SpaceConfig(k=2)
    inv = make_inversion(2)
    assert inv(origin(2)).infinite
    assert chordal_sq(inv(infinity(2)), origin(2)) < 1e-15
    for _ in range(200):
        p, q = sample_distinct_points(cfg, rng, 2)
        lhs = dist(inv(p), inv(q)) * gauge(p) * gauge(q)
        assert lhs == pytest.approx(dist(p, q), rel=1e-9)
    # gauges invert, so the gauge-1 sphere maps onto itself
    p = point([0.6 + 0.3j], -0.8)
    assert gauge(inv(p)) == pytest.approx(1.0 / gauge(p), rel=1e-12)
    unit = point([math.sqrt(math.cos(0.4))], math.sin(0.4))
    assert gauge(unit) == pytest.approx(1.0, abs=1e-15)
    assert gauge(inv(unit)) == pytest.approx(1.0, rel=1e-13)


def test_inversion_is_involution(rng):
    cfg = SpaceConfig(k=3)
    inv = make_inversion(3)
    for _ in range(50):
        p = sample_point(cfg, rng)
        assert chordal_sq(inv(inv(p)), p) < 1e-13


def test_axis_reflection_chart_action():
    R = axis_reflection(2)
    assert chordal_sq(R(point([1], 1.0)), point([-1], 1.0)) < 1e-15


def test_identity_and_compose_form_preservation(rng):
    cfg = SpaceConfig(k=3)
    gmap = MoebiusMap.identity(3)
    p = sample_point(cfg, rng)
    assert chordal_sq(gmap(p), p) == 0.0
    comp = random_moebius(cfg, rng)
    for _ in range(40):
        comp = comp @ random_moebius(cfg, rng)
    assert comp.form_residual() < 1e-10


def test_moebius_map_check_rejects_non_finite_matrix():
    # a NaN form residual compares false against every bound
    for bad in (math.nan, math.inf):
        with np.errstate(invalid="ignore"), pytest.raises(GeometryError, match="Hermitian form"):
            MoebiusMap(np.full((3, 3), bad))


def test_inverse_uses_form():
    g = make_translation([0.5 + 0.25j], 1.5) @ make_dilation(1.7, 2)
    gi = g.inverse()
    assert np.allclose(gi.g @ g.g, np.eye(3), atol=1e-12)


def test_crt_projective_agrees_with_chart(rng):
    cfg = SpaceConfig(k=3)
    for _ in range(200):
        quad = sample_distinct_points(cfg, rng, 4)
        assert crt(*quad).max_difference(crt_projective(*quad)) < 1e-12


def test_crt_invariance_under_maps(rng):
    cfg = SpaceConfig(k=2)
    for _ in range(100):
        quad = sample_distinct_points(cfg, rng, 4)
        g = random_moebius(cfg, rng)
        assert crt(*quad).max_difference(crt(*(g(p) for p in quad))) < 1e-11


def test_crt_with_infinity_entry(rng):
    cfg = SpaceConfig(k=2)
    x, y, z = sample_distinct_points(cfg, rng, 3)
    quad = (x, y, z, infinity(2))
    g = random_moebius(cfg, rng)
    assert crt(*quad).max_difference(crt(*(g(p) for p in quad))) < 1e-11
    assert crt(*quad).max_difference(crt_projective(*quad)) < 1e-12
