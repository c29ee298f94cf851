"""Curvature model golden values and unitary reflection words."""

import math

import numpy as np
import pytest

from chgeom import tangent
from chgeom.core import GeometryError, _norm_rows
from chgeom.tangent import (
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
    # a NaN plane once returned nan: the degeneracy test compared NaN
    for a, b in ((x, 2.0 * x), (np.array([math.nan, 1.0]), np.array([1.0, 0.0])),
                 (np.stack([x, x + z]), np.stack([z, math.nan * z]))):
        with pytest.raises(GeometryError):
            sectional(a, b)


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
                          [tangent._reflection_matrix(line) for line in lines])


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


def test_reflection_word_of_equal_vectors_is_empty():
    for u in (np.array([1.0, 0.0], dtype=complex), np.array([0.6, 0.8j])):
        word = reflection_word(u, u)
        assert word.shape == (0, 2)
        assert np.array_equal(word_matrix(word), np.eye(2))


def test_reflection_word_random(rng):
    for _ in range(100):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        word = reflection_word(u, v)
        assert np.linalg.norm(word_matrix(word) @ u - v) < 1e-10
        for R in word_matrix(word[:, None]):
            assert np.allclose(R @ R, np.eye(2), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(-1.0, abs=1e-12)
            svals = np.linalg.svd(np.eye(2) - R, compute_uv=False)
            assert svals[0] == pytest.approx(2.0, abs=1e-12)  # rank one image
            assert svals[1] < 1e-12
    # |u| - 1 > tol is false for NaN, which once let a NaN word through
    for a, b in (([2.0, 0], [0, 1.0]), ([math.nan, 0], [1.0, 0]), ([1.0, 0], [0, math.nan])):
        with pytest.raises(GeometryError, match="unit vector"):
            reflection_word(np.array(a), np.array(b))


def test_reflection_products_special_unitary(rng):
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    g = word_matrix(np.stack([u, v]))
    assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)


def test_rational_rotation_has_finite_order():
    f1 = np.array([1.0, 0.0], dtype=complex)
    f2 = np.array([0.0, 1.0], dtype=complex)
    for q in (2, 3, 5, 8):
        rot = word_matrix(rotation_reflections(2.0 * math.pi / q, f1, f2))
        assert np.allclose(np.linalg.matrix_power(rot, q), np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# Contract: the stacked constructions equal their per-vector forms bit for bit
# ---------------------------------------------------------------------------

def _frame_reference(k, rng=None):
    # the adapted frame on the axes, or on rng's draws, built one vector at a time
    if rng is None:
        x, z, v = (np.eye(k, dtype=complex)[i] if i < k else None for i in range(3))
        return x, 1j * x, z, 1j * z, v
    sample = lambda: rng.standard_normal(k) + 1j * rng.standard_normal(k)
    x = sample()
    x /= np.linalg.norm(x)
    z = sample()
    z -= complex(np.vdot(x, z)) * x
    z /= np.linalg.norm(z)
    v = None
    if k >= 3:
        v = sample()
        v -= complex(np.vdot(x, v)) * x
        v -= inner(v, z) * z + inner(v, 1j * z) * (1j * z)
        v /= np.linalg.norm(v)
    return x, 1j * x, z, 1j * z, v


def _word_reference(u, v):
    # the lines of reflection_word as it was built one word at a time
    if np.linalg.norm(u - v) <= 1e-12:
        return []

    def target(w, coord):
        a = np.zeros(2, dtype=complex)
        a[coord] = w[coord] / abs(w[coord]) if abs(w[coord]) > 1e-13 else 1.0
        return a

    a1, a2 = target(u, 0), target(v, 1)
    c, s = math.cos(0.25 * math.pi), math.sin(0.25 * math.pi)
    return [(v + a2) / np.linalg.norm(v + a2), c * a1 + s * a2, 1.0 * a1 + 0.0 * a2,
            (u + a1) / np.linalg.norm(u + a1)]


def _complex_rows(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", [(200, n) for n in range(1, 9)] + [(50, 4, 2)], ids=str)
def test_stacked_norms_and_pairing_match_per_row(shape):
    # the row norm and pairing tangent's frames and curvatures take from core
    rng = np.random.default_rng(sum(shape))
    a, b = _complex_rows(rng, shape), _complex_rows(rng, shape)
    rows = lambda m: m.reshape(-1, shape[-1])
    assert np.array_equal(_norm_rows(a).ravel(),
                          [np.linalg.norm(r) for r in rows(a)])
    assert np.array_equal(np.vecdot(a, b).ravel(),
                          [np.vdot(r, s) for r, s in zip(rows(a), rows(b))])


def _equal_frames(got, want):
    return all(g is w is None or np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_stacked_frames_match_per_frame_reference(k):
    assert _equal_frames(adapted_frame(k), _frame_reference(k))
    rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
    for _ in range(50):
        one = tangent._frames(tangent._complex_draws(rng.standard_normal((min(k, 3), 2, k))))
        assert _equal_frames(one, _frame_reference(k, ref_rng))
    # one stacked call on 300 frames' draws reads the same stream
    stacked = tangent._frames(
        tangent._complex_draws(rng.standard_normal((300, min(k, 3), 2, k))))
    reference = [_frame_reference(k, ref_rng) for _ in range(300)]
    assert _equal_frames(stacked, [None if c[0] is None else np.array(c)
                                   for c in zip(*reference)])


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_holonomy_check_matches_per_frame_reference(k):
    ref_rng = np.random.default_rng(k)
    worst_id = worst_off = 0.0
    for _ in range(100):
        x, y, z, u, v = _frame_reference(k, ref_rng)
        worst_id = max(worst_id, float(np.linalg.norm(riem_vec(x, y, z) - 2.0 * u)))
        if v is not None:
            worst_off = max(worst_off, abs(riem(x, y, z, v)))
    report = holonomy_check(k, trials=100, rng=np.random.default_rng(k))
    assert report["identity_residual"] == worst_id
    assert report["offplane_residual"] == worst_off


def test_stacked_reflection_words_match_per_word_reference():
    rng = np.random.default_rng(16)
    u, v = _complex_rows(rng, (500, 2)), _complex_rows(rng, (500, 2))
    u[0], v[1], u[2] = v[0], [0.0, 1.0], [0.0, 2.0j]   # u = v, and the axis cases
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    reference = [_word_reference(a, b) for a, b in zip(u, v)]
    for a, b, want in zip(u, v, reference):
        got = list(reflection_word(a, b))
        assert len(got) == len(want) and all(map(np.array_equal, got, want))
    full = np.array([len(w) == 4 for w in reference])
    assert np.array_equal(tangent._word_lines(u[full], v[full]),
                          [w for w in reference if w])


def test_word_matrix_of_a_stack_matches_per_word_product():
    # the identity times each letter from the left, one word at a time
    rng = np.random.default_rng(17)
    lines = _complex_rows(rng, (300, 4, 2))
    reference = []
    for word in lines:
        out = np.eye(2, dtype=complex)
        for line in word:
            out = out @ tangent._reflection_matrix(line)
        reference.append(out)
    got = word_matrix(lines)
    assert got.shape == (300, 2, 2)
    assert got.tobytes() == np.array(reference).tobytes()


def test_zero_and_non_finite_directions_raise():
    for line in ([0.0, 0.0], [math.nan, 1.0], [math.inf, 0.0]):
        with pytest.raises(GeometryError):
            word_matrix([[1.0, 0.0], line])
    for u in (np.zeros(3), np.array([1.0, math.nan, 0.0])):
        with pytest.raises(GeometryError):
            curvature_operator_spectrum(u)
