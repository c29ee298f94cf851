"""Curvature model golden values and unitary reflection words."""

import math

import numpy as np
import pytest

from chgeom import tangent
from chgeom.core import GeometryError
from chgeom.tangent import (
    UnitaryReflection,
    adapted_frame,
    curvature_operator_spectrum,
    euler_interp,
    holonomy_check,
    inner,
    reflection_word,
    riem,
    riem_polarized,
    riem_vec,
    rotation_reflections,
    sec_k,
    sectional,
    word_matrix,
)


@pytest.fixture
def frame():
    return adapted_frame(3)


def test_frame_orthonormality(frame):
    x, y, z, u, v = frame
    for a in (x, y, z, u, v):
        assert inner(a, a) == pytest.approx(1.0)
    assert inner(x, z) == 0.0 and inner(x, u) == 0.0
    assert inner(y, z) == 0.0 and inner(z, v) == 0.0 and inner(u, v) == 0.0


def test_curvature_golden_values(frame):
    x, y, z, u, v = frame
    assert riem(x, y, z, u) == pytest.approx(2.0, abs=1e-12)
    assert riem(x, y, z, v) == pytest.approx(0.0, abs=1e-12)
    assert sec_k(x, z) == pytest.approx(-1.0, abs=1e-12)
    assert sec_k(y, z) == pytest.approx(-1.0, abs=1e-12)
    assert sec_k(x, y) == pytest.approx(-4.0, abs=1e-12)
    assert sec_k(x + u, y + z) == pytest.approx(-4.0, abs=1e-12)
    assert sec_k(y + u, x + z) == pytest.approx(-16.0, abs=1e-12)
    assert sec_k(x + v, y + z) == pytest.approx(-7.0, abs=1e-12)
    assert sec_k(y + v, x + z) == pytest.approx(-7.0, abs=1e-12)


def test_sectional_and_euler(frame):
    x, y, z, u, v = frame
    vt = (x + v) / math.sqrt(2)
    yp = (y + z) / math.sqrt(2)
    assert sectional(vt, yp) == pytest.approx(-1.75, abs=1e-12)
    assert euler_interp(-4.0, -1.0, math.pi / 3) == pytest.approx(-1.75, abs=1e-14)
    assert euler_interp(-4.0, -1.0, 0.0) == -4.0
    with pytest.raises(GeometryError):
        sectional(x, 2.0 * x)


def test_polarization_identity(frame, rng):
    x, y, z, u, v = frame
    assert riem_polarized(x, y, z, u) == pytest.approx(12.0, abs=1e-12)
    assert riem_polarized(x, y, z, v) == pytest.approx(0.0, abs=1e-12)
    for _ in range(100):
        a, b, c, d = (rng.standard_normal(3) + 1j * rng.standard_normal(3)
                      for _ in range(4))
        assert riem_polarized(a, b, c, d) == pytest.approx(
            6.0 * riem(a, b, c, d), abs=1e-10 * max(1.0, abs(riem(a, b, c, d))))


def test_tensor_symmetries(rng):
    for _ in range(50):
        x, y, z, w = (rng.standard_normal(2) + 1j * rng.standard_normal(2)
                      for _ in range(4))
        assert riem(x, y, z, w) == pytest.approx(-riem(y, x, z, w), abs=1e-12)
        assert riem(x, y, z, w) == pytest.approx(-riem(x, y, w, z), abs=1e-12)
        assert riem(x, y, z, w) == pytest.approx(riem(z, w, x, y), abs=1e-12)
        bianchi = riem(x, y, z, w) + riem(y, z, x, w) + riem(z, x, y, w)
        assert bianchi == pytest.approx(0.0, abs=1e-12)


def test_curvature_operator_spectrum(rng):
    for k in (1, 2, 3):
        u = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        evals = curvature_operator_spectrum(u)
        target = np.concatenate([[-4.0], -np.ones(2 * k - 2), [0.0]])
        assert np.allclose(evals, target, atol=1e-10)


def _spectrum_per_pair(u):
    # the operator matrix built entry by entry, R(e, u) u once per (f, e)
    u = u / np.linalg.norm(u)
    k = u.shape[0]
    basis = [np.eye(k, dtype=complex)[i] * c for i in range(k) for c in (1, 1j)]
    M = np.array([[float(inner(riem_vec(e, u, u), f)) for e in basis] for f in basis])
    return np.sort(np.linalg.eigvalsh(M))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_curvature_operator_spectrum_builds_each_column_once(k, monkeypatch):
    rng = np.random.default_rng(k)
    us = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for _ in range(100)]
    for u in us:
        assert np.array_equal(curvature_operator_spectrum(u), _spectrum_per_pair(u))
    calls = []
    monkeypatch.setattr(tangent, "riem_vec",
                        lambda *args: calls.append(1) or riem_vec(*args))
    curvature_operator_spectrum(us[0])
    assert len(calls) == 2 * k


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kernel_rows_equal_single_vectors(k):
    # a stack of vectors is evaluated row by row, bit for bit
    rng = np.random.default_rng(10 + k)
    x, y, z, w = rng.standard_normal((4, 50, k)) + 1j * rng.standard_normal((4, 50, k))
    for fn, args in ((inner, (x, y)), (riem_vec, (x, y, z)), (riem, (x, y, z, w)),
                     (sec_k, (x, y)), (riem_polarized, (x, y, z, w)),
                     (curvature_operator_spectrum, (x,))):
        block = fn(*args)
        assert np.array_equal(block, [fn(*row) for row in zip(*args)]), fn.__name__
    assert np.array_equal(sectional(x, y), [sectional(a, b) for a, b in zip(x, y)])
    lines = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    assert np.array_equal(tangent._reflection_matrix(lines),
                          [UnitaryReflection(line).matrix() for line in lines])


def test_sectional_pinching(rng):
    for _ in range(200):
        u, v = (rng.standard_normal(3) + 1j * rng.standard_normal(3)
                for _ in range(2))
        K = sectional(u, v)
        assert -4.0 - 1e-10 <= K <= -1.0 + 1e-10


def test_holonomy_identity(frame, rng):
    x, y, z, u, v = frame
    assert np.linalg.norm(riem_vec(x, y, z) - 2.0 * u) < 1e-12
    report = holonomy_check(3, trials=16, rng=rng)
    assert not report["vacuous"]
    assert report["identity_residual"] < 1e-12
    assert report["offplane_residual"] < 1e-12
    assert holonomy_check(1)["vacuous"]
    # k = 2 has no off-plane directions but the identity still holds
    r2 = holonomy_check(2, trials=8, rng=rng)
    assert r2["identity_residual"] < 1e-12 and r2["offplane_residual"] == 0.0


def test_reflection_word_axis_swap():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    word = reflection_word(e1, e2)
    assert np.allclose(word_matrix(word) @ e1, e2, atol=1e-12)
    assert reflection_word(e1, e1) == []


def test_reflection_word_random(rng):
    for _ in range(100):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        word = reflection_word(u, v)
        assert np.linalg.norm(word_matrix(word) @ u - v) < 1e-10
        for r in word:
            R = r.matrix()
            assert np.allclose(R @ R, np.eye(2), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(-1.0, abs=1e-12)
            svals = np.linalg.svd(np.eye(2) - R, compute_uv=False)
            assert svals[0] == pytest.approx(2.0, abs=1e-12)  # rank one image
            assert svals[1] < 1e-12
    with pytest.raises(GeometryError):
        reflection_word(np.array([2.0, 0]), np.array([0, 1.0]))


def test_reflection_products_special_unitary(rng):
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    g = UnitaryReflection(line=u).matrix() @ UnitaryReflection(line=v).matrix()
    assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)


def test_rational_rotation_has_finite_order():
    f1 = np.array([1.0, 0.0], dtype=complex)
    f2 = np.array([0.0, 1.0], dtype=complex)
    for q in (2, 3, 5, 8):
        rot = word_matrix(rotation_reflections(2.0 * math.pi / q, f1, f2))
        assert np.allclose(np.linalg.matrix_power(rot, q), np.eye(2), atol=1e-12)
