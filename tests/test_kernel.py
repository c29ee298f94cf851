"""Scalar point kernel: the lean expressions against the formulas they replace.

The kernel keeps numpy's array arithmetic, so each rewritten expression
must agree with its reference bit for bit; every comparison here is
exact equality.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from chgeom.core import (
    CrossRatioTriple,
    BoundaryPoint,
    GeometryError,
    Points,
    SpaceConfig,
    _modulus,
    _norm,
    _norm_rows,
    chordal_sq,
    chordal_sq_stack,
    crt,
    crt_stack,
    dist,
    dist_stack,
    dist_w,
    dist_w_stack,
    harmonicity_residual,
    harmonicity_residual_stack,
    infinity,
    is_admissible,
    origin,
    pairing,
    point,
    ptolemy_defect,
    ptolemy_defect_squared,
    ptolemy_defect_stack,
    same_point,
    triples_from_pairings,
)
from chgeom.foliation import Polygon, horizontal_lift, tau, tau_stack
from chgeom.projective import (
    FINITE_CONSISTENCY_TOL,
    INFINITY_SLICE_TOL,
    NULL_TOL,
    _uniform,
    act_stack,
    crt_projective,
    dilation_stack,
    drop,
    drop_stack,
    herm,
    herm_stack,
    lift,
    lift_stack,
    make_dilation,
    make_inversion,
    make_rotation,
    make_translation,
    map_points,
    rotation_stack,
    translation_stack,
)
from chgeom.sampling import (
    _point_batch,
    canonical_chain,
    canonical_rcircle,
    moebius_params,
    moebius_stack,
    random_moebius,
    sample_point,
)


def _random_vector(rng, n, scale):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _herm_reference(X, Y):
    k = X.shape[0] - 1
    middle = complex(np.sum(X[1:k] * np.conj(Y[1:k]))) if k > 1 else 0.0
    return X[0] * np.conj(Y[k]) + X[k] * np.conj(Y[0]) + middle


def _same_point_reference(p, q, tol=1e-12):
    if p.infinite or q.infinite:
        return p.infinite and q.infinite
    return dist(p, q) <= tol


def _admissible_reference(points, tol=1e-12):
    n = len(points)
    for i in range(n):
        copies = sum(1 for j in range(n) if _same_point_reference(points[i], points[j], tol))
        if copies >= 3:
            return False
    return True


def _crt_reference(x, y, z, u):
    if not _admissible_reference((x, y, z, u)):
        return None
    a = math.sqrt(pairing(x, y) * pairing(z, u))
    b = math.sqrt(pairing(x, z) * pairing(y, u))
    c = math.sqrt(pairing(x, u) * pairing(y, z))
    return CrossRatioTriple.from_components(a, b, c)


def _dist_w_reference(omega, p, q):
    if omega.infinite:
        return dist(p, q)
    p_is_w, q_is_w = _same_point_reference(p, omega), _same_point_reference(q, omega)
    if p_is_w and q_is_w:
        return 0.0
    if p_is_w or q_is_w:
        return math.inf
    if p.infinite and q.infinite:
        return 0.0
    if p.infinite:
        return 1.0 / dist(q, omega)
    if q.infinite:
        return 1.0 / dist(p, omega)
    return dist(p, q) / (dist(p, omega) * dist(q, omega))


def _crt_or_none(quad):
    try:
        return crt(*quad)
    except GeometryError:
        return None


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_norm_matches_linalg_norm(rng, n):
    for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        for _ in range(200):
            X = _random_vector(rng, n, scale)
            assert _norm(X) == np.linalg.norm(X)
            # the samplers also normalise fresh real vectors with it
            x = X.real.copy()
            assert _norm(x) == np.linalg.norm(x)


def test_declared_numpy_floor_has_vecdot():
    # the stacked reductions call np.vecdot, which numpy added in 2.0
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', text)
    assert floor is not None and (int(floor[1]), int(floor[2])) >= (2, 0)


@pytest.mark.parametrize("k", range(1, 9))
def test_stacked_reductions_match_per_row(rng, k):
    # core's stacked row norm, pairing and modulus against their one-vector forms
    for shape in [(k,), (200, k), (20, 10, k)]:
        a, b = (10.0 ** rng.uniform(-3.0, 3.0, shape) * _random_vector(rng, shape, 1.0)
                for _ in range(2))
        rows_a, rows_b = a.reshape(-1, k), b.reshape(-1, k)
        assert _bits(np.ravel(_norm_rows(a))) == _bits([_norm(r) for r in rows_a])
        assert _bits(np.ravel(np.vecdot(a, b))) == _bits([np.vdot(r, s)
                                                          for r, s in zip(rows_a, rows_b)])
        assert _bits(_modulus(a)) == _bits([abs(z) for z in a.ravel()])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_herm_matches_reference(rng, n):
    for scale in (1e-8, 1.0, 1e8):
        for _ in range(200):
            X, Y = _random_vector(rng, n, scale), _random_vector(rng, n, scale)
            assert herm(X, Y) == _herm_reference(X, Y)


def test_is_admissible_matches_all_pairs_count(rng):
    # the same tuples also pin crt, same_point and dist_w, which read the
    # one distance per pair, to the branchy formulas they replace
    space = SpaceConfig(k=3)
    for _ in range(300):
        p = sample_point(space, rng)
        near = point(p.z, p.t + 1e-25)  # within the coincidence tolerance of p
        pool = [p, infinity(3), near] + [sample_point(space, rng) for _ in range(3)]
        for n_distinct in range(1, len(pool) + 1):
            # drawing 4 entries from n_distinct covers 0 to 4 repeated entries
            pts = [pool[i] for i in rng.integers(0, n_distinct, size=4)]
            assert is_admissible(pts) == _admissible_reference(pts)
            assert _crt_or_none(pts) == _crt_reference(*pts)
            for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
                assert same_point(pts[a], pts[b]) == _same_point_reference(pts[a], pts[b])
            w, x, y = pts[:3]
            assert dist_w(w, x, y) == _dist_w_reference(w, x, y)


def test_is_admissible_counts_infinity_copies():
    k = 3
    inf, o, q = infinity(k), origin(k), point([1.0, 0.0], 0.5)
    assert is_admissible((inf, inf, o, q))
    assert not is_admissible((inf, o, inf, inf))
    assert not is_admissible((o, q, o, o))
    assert is_admissible((o, inf, o, inf))


@pytest.mark.parametrize("k", [2, 3])
def test_membership_residuals_match_reference(rng, k):
    space = SpaceConfig(k=k)
    F = canonical_chain(k).transported(random_moebius(space, rng))
    sigma = canonical_rcircle(k).transported(random_moebius(space, rng))
    for _ in range(200):
        p = sample_point(space, rng)
        Q = F._plane_basis
        X = lift(p)
        assert F.membership_residual(p) == float(np.linalg.norm(X - Q @ (Q.conj().T @ X)) ** 2)
        Y = sigma._ginv @ lift(p)
        Y = Y / np.linalg.norm(Y)
        v = np.array([Y[0], Y[1], Y[k]])
        phase = 0.5 * (float(np.sum(np.abs(v) ** 2)) - abs(np.sum(v * v)))
        ref = float(np.sum(np.abs(Y[2:k]) ** 2)) + max(phase, 0.0)
        assert sigma.membership_residual(p) == ref


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_point_rejects_nonfinite_coordinates(bad):
    for z in ([0.5, bad], [complex(0.5, bad), 0.0], [complex(bad, 0.5), 0.0]):
        with pytest.raises(GeometryError):
            point(z, 0.0)
        with pytest.raises(GeometryError):
            point(np.array(z, dtype=complex), 0.0)
    for z in ([0.5, 1.0], np.array([0.5, 1.0], dtype=complex)):
        with pytest.raises(GeometryError):
            point(z, bad)


def test_point_keeps_coordinates_of_any_input():
    z = np.array([0.5 + 1j, -2.0], dtype=complex)
    for arg in (z, list(z), z.reshape(2, 1), tuple(z)):
        p = point(arg, 1.5)
        assert p.z.shape == (2,) and p.z.dtype == complex
        assert np.array_equal(p.z, z) and p.t == 1.5
    assert point(0.5j, 0.0).z.shape == (1,)
    assert point([], 2.0).k == 1


def test_drop_accepts_lists_and_real_arrays(rng):
    space = SpaceConfig(k=3)
    for _ in range(50):
        p = sample_point(space, rng)
        X = lift(p)
        q = drop(list(X))
        assert np.array_equal(q.z, drop(X).z) and q.t == drop(X).t
    # real input is converted, as before
    e0 = drop([1.0, 0.0, 0.0])
    assert e0.infinite


def _tau_reference(vertices, t0, base_index=0):
    v = np.roll(vertices, -base_index, axis=0)
    t = float(t0)
    for i in range(v.shape[0]):
        t = horizontal_lift(v[i], v[(i + 1) % v.shape[0]], t)
    return t, math.sqrt(abs(t - float(t0)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_tau_matches_roll_reference(rng, m):
    for n in range(2, 7):
        for _ in range(40):
            v = _random_vector(rng, (n, m), 1.0)
            t0 = rng.uniform(-2.0, 2.0)
            assert tau(Polygon(vertices=v), t0) == _tau_reference(v, t0)


def _lift_reference(p):
    k = p.k
    X = np.zeros(k + 1, dtype=complex)
    if p.infinite:
        X[0] = 1.0
    else:
        X[0] = 0.5 * (-complex(np.vdot(p.z, p.z)).real + 1j * p.t)
        X[1:k] = p.z
        X[k] = 1.0
    return X / np.linalg.norm(X)


def _drop_reference(X):
    # the array formulation: every test on numpy values, herm for the null test
    X = np.asarray(X, dtype=complex)
    k = X.shape[0] - 1
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(X)
    if not math.isfinite(norm):
        raise GeometryError("non-finite")
    if not norm > 0:
        raise GeometryError("zero")
    if abs(herm(X, X)) > NULL_TOL * norm * norm:
        raise GeometryError("not null")
    if abs(X[k]) <= INFINITY_SLICE_TOL * norm:
        return infinity(k)
    w = X[0] / X[k]
    z = X[1:k] / X[k]
    zz = complex(np.vdot(z, z)).real
    if abs(w.real + 0.5 * zz) > FINITE_CONSISTENCY_TOL * (1.0 + abs(w)):
        return infinity(k)
    return BoundaryPoint(z=z, t=2.0 * w.imag)


def _outcome(f, X):
    try:
        p = f(X)
    except GeometryError:
        return "raises"
    return ("inf",) if p.infinite else ([repr(c) for c in p.z.tolist()], repr(float(p.t)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lift_is_kept_on_the_point_and_matches_reference(rng, k):
    space = SpaceConfig(k=k)
    for _ in range(100):
        p = sample_point(space, rng)
        X = lift(p)
        assert np.array_equal(X, _lift_reference(p)) and lift(p) is X
        assert not X.flags.writeable
    assert np.array_equal(lift(infinity(k)), _lift_reference(infinity(k)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_drop_matches_reference(rng, k):
    space = SpaceConfig(k=k)
    vectors = []
    for _ in range(200):
        g = random_moebius(space, rng)
        X = g.g @ lift(sample_point(space, rng))
        vectors += [X, (rng.standard_normal() + 1j * rng.standard_normal()) * X]
        vectors.append(g.g @ lift(infinity(k)))          # an image of infinity
        E = lift(infinity(k)) + 1e-12 * _random_vector(rng, k + 1, 1.0)
        vectors.append(E)                                 # blurred infinity
        vectors.append(_random_vector(rng, k + 1, 1.0))  # not null
    vectors += [np.zeros(k + 1, dtype=complex), np.full(k + 1, np.nan, dtype=complex),
                np.full(k + 1, 1e200, dtype=complex)]
    for X in vectors:
        assert _outcome(drop, X) == _outcome(_drop_reference, X)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_point_batch_norms_match_linalg_norm(rng, m):
    state = rng.bit_generator.state
    Z, _ = _point_batch(SpaceConfig(k=m + 1), rng, (50, 5))
    rng.bit_generator.state = state
    raw = rng.standard_normal((50, 5, m)) + 1j * rng.standard_normal((50, 5, m))
    radii = 2.0 * rng.uniform(size=(50, 5, 1)) ** (1.0 / (2 * m))
    assert np.array_equal(Z, raw / np.linalg.norm(raw, axis=-1, keepdims=True) * radii)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_constant_instances_are_shared_and_read_only(k):
    assert origin(k) is origin(k) and infinity(k) is infinity(k)
    assert canonical_chain(k) is canonical_chain(k)
    assert make_inversion(k) is make_inversion(k)
    for a in (origin(k).z, infinity(k).z, make_inversion(k).g):
        assert not a.flags.writeable
    # the shared points keep one lift
    assert lift(infinity(k)) is lift(infinity(k))


# ---------------------------------------------------------------------------
# Stacked forms against their scalar twins, bit for bit
# ---------------------------------------------------------------------------

def _bits(a):
    return np.asarray(a).tobytes()


def _stack(points):
    k = points[0].k
    return Points(np.array([p.z for p in points], dtype=complex).reshape(len(points), k - 1),
                  np.array([p.t for p in points]), np.array([p.infinite for p in points]))


def _point_pool(rng, k, n):
    """n points: sampled ones, dilated ones over six orders of magnitude, and
    every seventh at infinity and every seventh at the origin (rows repeat)."""
    space = SpaceConfig(k=k)
    pts = []
    for i in range(n):
        p = sample_point(space, rng)
        scale = math.exp(rng.uniform(-3.0, 3.0))
        special = {2: infinity(k), 3: origin(k), 1: point(scale * p.z, scale * scale * p.t)}
        pts.append(special.get(i % 7, p))
    return pts


def _same_points(P, pts):
    assert P.inf.tolist() == [p.infinite for p in pts]
    for i, p in enumerate(pts):
        if not p.infinite:
            assert _bits(P.Z[i]) == _bits(p.z) and _bits(P.T[i]) == _bits(p.t)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_lift_and_act_stacks_match_scalar(rng, k):
    pts = _point_pool(rng, k, 300)
    X = lift_stack(_stack(pts))
    assert _bits(X) == _bits(np.array([lift(p) for p in pts]))
    G = np.array([random_moebius(SpaceConfig(k=k), rng).g for _ in pts])
    assert _bits(act_stack(G, X)) == _bits(np.array([g @ x for g, x in zip(G, X)]))
    assert _bits(act_stack(G[0], X)) == _bits(np.array([G[0] @ x for x in X]))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_drop_stack_matches_scalar(rng, k):
    space = SpaceConfig(k=k)
    rows = []
    for _ in range(150):
        g = random_moebius(space, rng)
        X = g.g @ lift(sample_point(space, rng))
        rows += [X, (rng.standard_normal() + 1j * rng.standard_normal()) * X,
                 g.g @ lift(infinity(k)),
                 lift(infinity(k)) + 1e-12 * _random_vector(rng, k + 1, 1.0)]
    rows = np.array(rows)
    P = drop_stack(rows)
    _same_points(P, [drop(X) for X in rows])
    # a stack raises exactly when one of its rows does, with that row's message
    for bad in (_random_vector(rng, k + 1, 1.0), np.zeros(k + 1, dtype=complex),
                np.full(k + 1, np.nan, dtype=complex), np.full(k + 1, 1e200, dtype=complex)):
        with pytest.raises(GeometryError) as scalar:
            drop(bad)
        with pytest.raises(GeometryError) as stacked:
            drop_stack(np.vstack([rows[:5], bad, rows[5:9]]))
        assert str(stacked.value) == str(scalar.value)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_herm_stack_matches_scalar(rng, k):
    for scale in (1e-8, 1.0, 1e8):
        X, Y = _random_vector(rng, (200, k + 1), scale), _random_vector(rng, (200, k + 1), scale)
        H = herm_stack(X, Y)
        assert _bits(H) == _bits(np.array([herm(x, y) for x, y in zip(X, Y)]))
        # _modulus is the abs a scalar pairing takes
        assert _bits(_modulus(H)) == _bits(np.array([abs(herm(x, y)) for x, y in zip(X, Y)]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_metric_stacks_match_scalar(rng, k):
    pts = [_point_pool(rng, k, 280) for _ in range(4)]
    P = [_stack(p) for p in pts]
    rows = list(zip(*pts))
    assert _bits(dist_stack(P[0], P[1])) == _bits([dist(a, b) for a, b, *_ in rows])
    assert _bits(dist_w_stack(P[0], P[1], P[2])) == _bits([dist_w(*r[:3]) for r in rows])
    assert _bits(chordal_sq_stack(P[0], P[1])) == _bits([chordal_sq(a, b) for a, b, *_ in rows])
    # crt and the laws built on it raise on a stack with one inadmissible row
    admissible = [i for i, r in enumerate(rows) if is_admissible(r)
                  and sum(p.infinite for p in r) <= 1]
    assert 0 < len(admissible) < len(rows)
    Q = [Points(p.Z[admissible], p.T[admissible], p.inf[admissible]) for p in P]
    good = [rows[i] for i in admissible]
    assert _bits(crt_stack(*Q)) == _bits([crt(*r).components() for r in good])
    assert _bits(harmonicity_residual_stack(*Q)) == _bits([harmonicity_residual(*r)
                                                           for r in good])
    assert _bits(ptolemy_defect_stack(*Q)) == _bits([ptolemy_defect(*r) for r in good])
    assert _bits(ptolemy_defect_stack(*Q, power=2.0)) == _bits(
        [ptolemy_defect_squared(*r) for r in good])
    with pytest.raises(GeometryError, match="not admissible"):
        crt_stack(*P)
    # the projective triple from stacked lifts and pairings
    X = [lift_stack(q) for q in Q]
    W = [herm_stack(X[i], X[j]) for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
    assert _bits(triples_from_pairings([_modulus(w) for w in W])) == _bits(
        [crt_projective(*r).components() for r in good])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_moebius_stack_matches_random_moebius(k):
    space = SpaceConfig(k=k)
    params = [moebius_params(space, np.random.default_rng((k, i)), i % 3 != 0)
              for i in range(200)]
    maps = [random_moebius(space, np.random.default_rng((k, i)), i % 3 != 0)
            for i in range(200)]
    assert _bits(moebius_stack(k, params)) == _bits(np.array([g.g for g in maps]))
    z0, t0, U, lam, _ = zip(*params)
    z0 = np.array(z0).reshape(200, k - 1)
    assert _bits(translation_stack(z0, np.array(t0))) == _bits(
        [make_translation(z, t).g for z, t in zip(z0, t0)])
    assert _bits(rotation_stack(np.array(U).reshape(200, k - 1, k - 1))) == _bits(
        [make_rotation(u).g for u in U])
    assert _bits(dilation_stack(np.array(lam), k)) == _bits(
        [make_dilation(a, k).g for a in lam])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_map_points_and_circle_stacks_match_scalar(rng, k):
    space = SpaceConfig(k=k)
    maps = [random_moebius(space, rng) for _ in range(100)]
    G = np.array([g.g for g in maps])
    pools = [_point_pool(rng, k, 100) for _ in range(2)]
    for P, pts in zip(map_points(G, *(_stack(p) for p in pools)), pools):
        _same_points(P, [g(p) for g, p in zip(maps, pts)])
    _same_points(map_points(G[0], _stack(pools[0]))[0], [maps[0](p) for p in pools[0]])
    params = rng.uniform(-3.0, 3.0, size=(100, 2))
    circles = [canonical_chain(k)] + ([canonical_rcircle(k)] if k > 1 else [])
    for circle in circles:
        stacks = circle.points_at_stack(G, params)
        for j, P in enumerate(stacks):
            _same_points(P, [circle.transported(g).point_at(float(s))
                             for g, s in zip(maps, params[:, j])])


def test_ptolemy_stack_raises_with_two_infinite_entries():
    P = _stack([origin(2), infinity(2)])
    Q = _stack([infinity(2), infinity(2)])
    R = _stack([point([1.0], 0.0), point([2.0], 0.5)])
    with pytest.raises(GeometryError, match="at most one entry"):
        ptolemy_defect_stack(R, P, Q, R)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_tau_stack_matches_tau(rng, m):
    for n in range(2, 7):
        V = _random_vector(rng, (40, n, m), 1.0)
        t0 = rng.uniform(-2.0, 2.0, size=40)
        t, disp = tau_stack(V, t0)
        assert _bits(np.stack([t, disp], axis=-1)) == _bits(
            [tau(Polygon(vertices=v), s) for v, s in zip(V, t0)])


def test_uniform_is_numpys_uniform():
    for low, high in ((0.0, 1.0), (-2.0, 2.0), (-4.0, 4.0), (-0.5, 0.5), (-0.35, 0.35),
                      (-2, 2), (-1, 1), (0, 2 * math.pi), (-0.5 * math.pi, 0.5 * math.pi),
                      (0.05, 0.95), (0.5, 4.0), (-1.0, 2.0)):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for size in (None, 5, (3, 1)):
            for _ in range(200):
                assert _bits(_uniform(a, low, high, size)) == _bits(b.uniform(low, high, size))
        assert a.bit_generator.state == b.bit_generator.state


def test_triples_from_pairings_raises_as_from_pairings():
    w = [np.array([1.0, 0.0, 2.0]) for _ in range(6)]
    with pytest.raises(GeometryError) as scalar:
        CrossRatioTriple.from_pairings([0.0] * 6)
    with pytest.raises(GeometryError) as stacked:
        triples_from_pairings(w)
    assert str(stacked.value) == str(scalar.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_non_finite_triple_component_raises_in_every_position(position, bad):
    # Python's max skips a NaN unless it comes first, so each entry is tested
    comps = [1.0, 0.5, 0.25]
    comps[position] = bad
    with pytest.raises(GeometryError):
        CrossRatioTriple.from_components(*comps)
    # pairings whose complementary products are the squared components, in row 1
    w = [np.ones(2) for _ in range(6)]
    for i, c in enumerate(comps):
        w[i] = np.array([1.0, c * c])
    with pytest.raises(GeometryError) as scalar:
        CrossRatioTriple.from_pairings([float(a[1]) for a in w])
    with pytest.raises(GeometryError) as stacked:
        triples_from_pairings(w)
    assert str(stacked.value) == str(scalar.value)


def test_crt_with_an_overflowing_distance_raises_in_every_order():
    # dist(p, q) overflows to NaN; the NaN lands in a different component
    # of the triple for each order of the entries
    p, q = point([1e200], 1e308), point([1e200j], -1e308)
    x, y = point([1.0], 0.0), point([0.0], 1.0)
    assert math.isnan(dist(p, q))
    for quad in ((x, p, q, y), (p, q, x, y), (x, y, p, q)):
        with pytest.raises(GeometryError):
            crt(*quad)
