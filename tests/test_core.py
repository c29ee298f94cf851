"""Gauge, metric, cross-ratio and Ptolemy behavior of the chart model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chgeom.core import (
    CrossRatioTriple,
    GeometryError,
    SpaceConfig,
    chordal,
    chordal_sq,
    crt,
    dist,
    dist_w,
    gauge,
    harmonicity_residual,
    heis_inv,
    heis_mul,
    infinity,
    is_admissible,
    is_harmonic,
    origin,
    point,
    ptolemy_defect,
    ptolemy_defect_squared,
    same_point,
)
from chgeom.sampling import sample_distinct_points, sample_point


def test_space_config_validation():
    SpaceConfig(k=1)
    with pytest.raises(GeometryError):
        SpaceConfig(k=0)


def test_gauge_values():
    assert gauge(origin(2)) == 0.0
    assert gauge(point([1], 0.0)) == 1.0
    assert gauge(point([1], 1.0)) == pytest.approx(2.0 ** 0.25, abs=1e-15)
    with pytest.raises(GeometryError):
        gauge(infinity(2))


def test_heisenberg_group():
    p, q = point([1 + 1j], 0.5), point([0.25j], -2.0)
    assert same_point(heis_mul(p, heis_inv(p)), origin(2), tol=1e-12)
    # left invariance of the distance
    r = point([0.3], 1.0)
    assert dist(heis_mul(r, p), heis_mul(r, q)) == pytest.approx(dist(p, q), rel=1e-12)


def test_dist_values():
    assert dist(origin(2), point([0], 4.0)) == 2.0
    assert dist(point([1], 0.0), point([2], 0.0)) == 1.0
    assert dist(origin(2), infinity(2)) == math.inf
    assert dist(infinity(2), infinity(2)) == 0.0


def test_dist_w_values():
    o = origin(2)
    assert dist_w(infinity(2), o, point([0], 4.0)) == 2.0
    got = dist_w(o, point([0], 1.0), point([0], 4.0))
    assert got == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)
    # omega becomes the remote point
    assert dist_w(o, o, point([1], 0.0)) == math.inf
    assert dist_w(o, o, o) == 0.0
    # the old infinity lands at distance 1/d(q, omega)
    assert dist_w(o, infinity(2), point([0], 4.0)) == pytest.approx(0.5, abs=1e-15)


def test_crt_examples():
    o, inf2 = origin(2), infinity(2)
    t = crt(o, point([1], 0.0), point([2], 0.0), inf2)
    assert np.allclose(t.components(), [0.5, 1.0, 0.5], atol=1e-14)
    # repeated-pair degeneracy
    t2 = crt(o, o, point([1], 0.0), point([1], 0.0))
    assert np.allclose(t2.components(), [0.0, 1.0, 1.0], atol=1e-14)


def test_crt_metric_independence(rng):
    cfg = SpaceConfig(k=2)
    x, y, z, u, w = sample_distinct_points(cfg, rng, 5)
    base = crt(x, y, z, u)
    d = lambda p, q: dist_w(w, p, q)
    a = d(x, y) * d(z, u)
    b = d(x, z) * d(y, u)
    c = d(x, u) * d(y, z)
    assert base.max_difference(CrossRatioTriple.from_components(a, b, c)) < 1e-12


def test_admissibility():
    o = origin(2)
    p = point([1], 0.0)
    assert is_admissible((o, o, p, p))
    assert not is_admissible((o, o, o, p))
    with pytest.raises(GeometryError):
        crt(o, o, o, p)


def test_harmonicity_examples():
    o, inf2 = origin(2), infinity(2)
    u, v = point([1], 0.0), point([-1], 0.0)
    assert is_harmonic(o, u, inf2, v)
    assert not is_harmonic(o, u, inf2, point([2], 0.0))
    # a repeated entry makes the 4-tuple harmonic automatically
    assert is_harmonic(o, u, o, point([2], 0.0))


def test_ptolemy_defect_rline():
    pts = [point([s], 0.0) for s in (0.0, 1.0, 2.5, 4.0)]
    assert abs(ptolemy_defect(*pts)) < 1e-12


def test_ptolemy_defect_vertical_chain_squared():
    pts = [point([0], t) for t in (0.0, 1.0, 2.0, 3.0)]
    # squared distances are the height gaps: 2*2 = 1*1 + 3*1
    assert abs(ptolemy_defect_squared(*pts)) < 1e-14
    assert ptolemy_defect(*pts) < 0.0


def test_ptolemy_defect_one_infinite_entry():
    pts = [point([s], 0.0) for s in (0.0, 1.0, 2.5)]
    assert abs(ptolemy_defect(pts[0], pts[1], pts[2], infinity(2))) < 1e-12
    with pytest.raises(GeometryError):
        ptolemy_defect(infinity(2), pts[0], infinity(2), pts[1])


def test_chordal_comparisons():
    o = origin(2)
    assert chordal(infinity(2), infinity(2)) == 0.0
    assert 0.0 < chordal(o, infinity(2)) <= 1.0
    assert chordal_sq(o, o) == 0.0
    near = point([0], 1e-13)
    assert chordal_sq(o, near) < 1e-12  # first order in the coordinate gap


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_triangle_inequality_property(seed):
    rng = np.random.default_rng(seed)
    cfg = SpaceConfig(k=2)
    x, y, z = sample_distinct_points(cfg, rng, 3)
    assert dist(x, z) <= dist(x, y) + dist(y, z) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_ptolemy_inequality_property(seed):
    rng = np.random.default_rng(seed)
    cfg = SpaceConfig(k=3)
    x, y, z, u = sample_distinct_points(cfg, rng, 4)
    scale = max(dist(x, z) * dist(y, u), 1e-12)
    assert ptolemy_defect(x, y, z, u) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_gauge_dilation_homogeneity(seed):
    rng = np.random.default_rng(seed)
    cfg = SpaceConfig(k=2)
    p = sample_point(cfg, rng)
    lam = float(rng.uniform(0.25, 4.0))
    scaled = point(lam * p.z, lam * lam * p.t)
    assert gauge(scaled) == pytest.approx(lam * gauge(p), rel=1e-12)


def test_harmonicity_residual_is_crt_gap(rng):
    cfg = SpaceConfig(k=2)
    x, z, y, u = sample_distinct_points(cfg, rng, 4)
    t = crt(x, z, y, u)
    assert harmonicity_residual(x, z, y, u) == pytest.approx(abs(t.a - t.c), abs=1e-15)
