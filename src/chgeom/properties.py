"""Registered verification properties, one per geometric invariant.

A per-trial property is a function ``fn(cfg, rng) -> residual``
drawing its own configuration from the generator; the harness runs it
over independent per-trial streams and compares the worst residual with
the property's tolerance.  Residuals are normalized (relative to the
largest term of the identity under test, or squared-chordal for point
coincidences), so tolerances are dimensionless.

A batched law is declared with ``@_law(..., batched=block)``.  The
decorated function, its ``fn(cfg, rng)``, then returns the trial's draw
instead of its residual: it draws the trial's inputs from the trial's
own generator, in the order a per-trial form of the law would, and does
no other work.  ``block(cfg, draws) -> residuals`` evaluates a block of
draws, in trial order, on stacked arrays and returns one residual per
draw.  A trial's residual
is the same in a batch of one as in any block, since replay runs a
batch of one.

A law is declared where it is written: ``@_law(suite, module, tol,
base_trials, statement)`` appends it to ``REGISTRY`` under its function
name.  A law's position in this file, not its suite, keys its trial
streams, so a new law goes at the end of the file; inserted anywhere
else, it makes every later law draw new streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from . import foliation as fo
from . import tangent as tg
from .core import (
    Points,
    _gauge_stack,
    _modulus,
    _norm_rows,
    _pairing_stack,
    _pow,
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
    origin,
    point,
    ptolemy_defect,
    ptolemy_defect_stack,
    triples_from_pairings,
)
from .circles import (
    OFF_CIRCLE_MARGIN,
    ccircle_through,
    circle_pointset_residual,
    conjugate_pole,
    eta,
    mu,
    rcircle_through_hitting,
    reflection_in_ccircle,
    sphere_between,
)
from .ortho import (
    OrthoComplement,
    _three_point_residual,
    canonical_fiber,
    are_orthogonal,
    fixset_psi_residual,
    intercept_distances,
    join_decompose,
    ortho_membership_residuals,
    positive_root,
    standard_rcircle,
)
from .projective import (
    MoebiusMap,
    _uniform,
    _unit_direction,
    chart,
    dilation_stack,
    distance_pairing_constant,
    drop,
    drop_stack,
    herm_stack,
    lift,
    lift_stack,
    make_inversion,
    map_points,
    rotation_stack,
    translation_stack,
)
from .sampling import (
    MIN_SEPARATION,
    _distinct_point_batch,
    _point_batch,
    _upper_pairs,
    canonical_chain,
    canonical_rcircle,
    moebius_params,
    moebius_stack,
    random_moebius,
    random_unitary,
    sample_chain,
    sample_distinct_points,
    sample_ortho_complement,
    sample_orthopair,
    sample_point,
    sample_rcircle,
)


@dataclass(frozen=True)
class Property:
    name: str
    suite: str
    module: str
    statement: str
    tol: float
    base_trials: int
    fn: Callable   # (cfg, rng) -> residual, or the trial's draw if batched
    min_k: int = 1
    batched: Callable | None = None   # (cfg, draws) -> one residual per draw


REGISTRY: list[Property] = []


def _law(suite, module, tol, base_trials, statement, min_k=1, batched=None):
    """Register the decorated function as the law named after it."""
    def register(fn):
        REGISTRY.append(Property(fn.__name__, suite, module, statement, tol,
                                 base_trials, fn, min_k, batched))
        return fn
    return register


def _rel(value: float, scale: float) -> float:
    return abs(value) / max(scale, 1e-300)


def _rel_stack(value, scale):
    return np.abs(value) / np.maximum(scale, 1e-300)


def _max_difference(a, b):
    """``CrossRatioTriple.max_difference`` of (n, 3) stacks of components."""
    return np.max(np.abs(a - b), axis=-1)


def _drawn_points(draws):
    """One finite ``Points`` stack per drawn point: each draw starts with the
    chart coordinates (Z, T) of its points, of shapes (j, k-1) and (j,)."""
    Z = np.array([d[0] for d in draws])
    T = np.array([d[1] for d in draws])
    return [Points.finite(Z[:, j], T[:, j]) for j in range(T.shape[1])]


def _origins(k, n):
    return Points.finite(np.zeros((n, k - 1)), np.zeros(n))


def _point_off_chain(cfg, rng, F):
    for _ in range(100):
        u = sample_point(cfg, rng)
        if F.membership_residual(u) > 1e-3:
            return u
    raise RuntimeError("could not sample a point off the chain")


def _distinct_taus(rng, n, lo=-2.5, hi=2.5, sep=0.05):
    for _ in range(100):
        taus = np.sort(_uniform(rng, lo, hi, size=n))
        if np.all(np.diff(taus) > sep):
            return taus
    raise RuntimeError("could not sample separated parameters")


def _metric_triangle_inequality(cfg, draws):
    x, y, z, w = _drawn_points(draws)
    worst = np.zeros(len(draws))
    for d in (dist_stack, lambda p, q: dist_w_stack(w, p, q)):
        dxz, dxy, dyz = d(x, z), d(x, y), d(y, z)
        worst = np.maximum(worst, _rel_stack(np.maximum(0.0, dxz - dxy - dyz),
                                             np.maximum(np.maximum(dxz, dxy), dyz)))
    return worst


@_law("ptolemy", "core", 1e-12, 2000,
      "gauge metric and all its inversions satisfy the triangle inequality",
      batched=_metric_triangle_inequality)
def metric_triangle_inequality(cfg, rng):
    return _distinct_point_batch(cfg, rng, 4)


_PTOLEMY_BATCH = 100


@_law("ptolemy", "core", 1e-9, 1000,
      "diagonal distance products never exceed the sum of the side products "
      "(each trial sweeps a batch of 100 quadruples)")
def ptolemy_inequality(cfg, rng):
    # one trial sweeps a batch of quadruples, in the plain gauge metric
    # and in the inversion at the fifth sampled point
    Z, T = _point_batch(cfg, rng, (_PTOLEMY_BATCH, 5))
    iu0, iu1 = _upper_pairs(5)
    P, Q = (Points.finite(Z[:, i].reshape(10 * _PTOLEMY_BATCH, cfg.k - 1), T[:, i].ravel())
            for i in (iu0, iu1))
    D = np.zeros((_PTOLEMY_BATCH, 5, 5))   # the pairs i < j are all it reads
    D[:, iu0, iu1] = dist_stack(P, Q).reshape(_PTOLEMY_BATCH, 10)
    D = D[D[:, iu0, iu1].min(axis=1) >= MIN_SEPARATION]

    def defect(M):
        t1 = M[:, 0, 2] * M[:, 1, 3]
        t2 = M[:, 0, 1] * M[:, 2, 3]
        t3 = M[:, 0, 3] * M[:, 1, 2]
        scale = np.maximum(np.maximum(t1, t2), t3)
        return float(np.max(np.maximum(0.0, t1 - t2 - t3) / scale))

    worst = defect(D)
    dw = D[:, :4, 4]
    Dw = D[:, :4, :4] / (dw[:, :, None] * dw[:, None, :])
    return max(worst, defect(Dw))


def _circle_ptolemy(circle, power):
    """The block of a Ptolemy equality on four ordered points of a transported circle."""
    def block(cfg, draws):
        params, taus = zip(*draws)
        pts = circle(cfg.k).points_at_stack(moebius_stack(cfg.k, params), np.array(taus))
        scale = dist_stack(pts[0], pts[2]) * dist_stack(pts[1], pts[3])
        if power != 1.0:
            scale = _pow(scale, power)
        return _rel_stack(ptolemy_defect_stack(*pts, power=power), np.maximum(scale, 1e-12))
    return block


@_law("ptolemy", "core", 1e-9, 2000,
      "cyclically ordered quadruples on an R-circle satisfy the Ptolemy equality",
      min_k=2, batched=_circle_ptolemy(canonical_rcircle, 1.0))
def rcircle_ptolemy_equality(cfg, rng):
    return moebius_params(cfg, rng), _distinct_taus(rng, 4)


@_law("ptolemy", "core", 1e-9, 2000,
      "ordered quadruples on a chain satisfy the squared Ptolemy equality",
      batched=_circle_ptolemy(canonical_chain, 2.0))
def ccircle_squared_ptolemy_equality(cfg, rng):
    return moebius_params(cfg, rng), _distinct_taus(rng, 4)


def _metric_double_inversion(cfg, draws):
    # c = chart(w) inverts the metric at w; inverting its image at the image
    # c(inf) of the old infinity must return the original metric, compared
    # through the cross-ratio products of a quadruple
    w, *quad = _drawn_points(draws)
    at_inf = np.array([d[2] for d in draws])[:, None] == range(4)
    quad = [Points(np.where(at_inf[:, [i]], 0j, p.Z), np.where(at_inf[:, i], 0.0, p.T),
                   at_inf[:, i]) for i, p in enumerate(quad)]
    c = make_inversion(cfg.k).g @ translation_stack(-w.Z, -w.T)
    c_inf, *images = map_points(c, Points.at_infinity(cfg.k, len(draws)), *quad)
    # a distance is inf when an entry is the old infinity
    pairings = [_pairing_stack(dist_w_stack(c_inf, images[i], images[j]))
                for i, j in combinations(range(4), 2)]
    return _max_difference(triples_from_pairings(pairings), crt_stack(*quad))


@_law("ptolemy", "core", 1e-9, 2000,
      "inverting at a point and back at the old infinity returns the metric",
      batched=_metric_double_inversion)
def metric_double_inversion(cfg, rng):
    return (*_distinct_point_batch(cfg, rng, 5), rng.integers(0, 4))


def _distance_formula_r4(cfg, draws):
    k, n = cfg.k, len(draws)
    params, t_o, Zu, Tu, check_mu = zip(*draws)
    g = moebius_stack(k, params)
    u0 = Points.finite(np.array(Zu), Tu)
    zeros = np.zeros((n, k - 1), dtype=complex)
    # the projection is equivariant, so its chart value transports; every
    # twentieth trial also runs the full projection machinery against it
    omega, o, u, z = map_points(g, Points.at_infinity(k, n), Points.finite(zeros, t_o), u0,
                                Points.finite(zeros, u0.T))
    worst = np.zeros(n)
    for i in np.flatnonzero(check_mu):
        F = canonical_chain(k).transported(MoebiusMap(g[i], check=False))
        worst[i] = chordal_sq(z.row(i), mu(F, omega.row(i), u.row(i)))
    r4, a4, b4 = (_pow(dist_w_stack(omega, p, q), 4) for p, q in ((o, u), (z, u), (o, z)))
    return np.maximum(worst, _rel_stack(r4 - a4 - b4, np.maximum(np.maximum(r4, a4), b4)))


@_law("distance_formula", "circles", 1e-9, 10000,
      "fourth powers satisfy r^4 = a^4 + b^4 for the chain projection", min_k=2,
      batched=_distance_formula_r4)
def distance_formula_r4(cfg, rng):
    params = moebius_params(cfg, rng)
    t_o = _uniform(rng, -4.0, 4.0)
    u0 = _point_off_chain(cfg, rng, canonical_chain(cfg.k))
    return params, t_o, u0.z, u0.t, _uniform(rng) < 0.05


@_law("distance_formula", "circles", 1e-8, 1000,
      "|xz| |zy| = |zu|^2 in the metric inverted at the involution image", min_k=2)
def wharm_product_identity(cfg, rng):
    F = sample_chain(cfg, rng)
    u = _point_off_chain(cfg, rng, F)
    t1, t2 = _distinct_taus(rng, 2)
    x, z = F.point_at(float(t1)), F.point_at(float(t2))
    y = eta(F, u, x)
    omega = eta(F, u, z)
    lhs = dist_w(omega, x, z) * dist_w(omega, z, y)
    rhs = dist_w(omega, z, u) ** 2
    return _rel(lhs - rhs, max(lhs, rhs))


@_law("axioms_e", "circles", 1e-8, 1000,
      "through two distinct points there is exactly one chain")
def ec_uniqueness(cfg, rng):
    p, q = sample_distinct_points(cfg, rng, 2)
    F = ccircle_through(p, q)
    worst = max(F.membership_residual(p), F.membership_residual(q))
    t1, t2 = _distinct_taus(rng, 2)
    F2 = ccircle_through(F.point_at(float(t1)), F.point_at(float(t2)))
    return max(worst, circle_pointset_residual(F, F2))


@_law("axioms_e", "circles", 1e-8, 1000,
      "one R-circle through a chain point and an outside point meets the chain again",
      min_k=2)
def er_existence_uniqueness(cfg, rng):
    F = sample_chain(cfg, rng)
    omega = F.point_at(float(_uniform(rng, -2, 2)))
    u = _point_off_chain(cfg, rng, F)
    sigma = rcircle_through_hitting(F, omega, u)
    hit = mu(F, omega, u)
    worst = max(
        sigma.membership_residual(omega),
        sigma.membership_residual(u),
        F.membership_residual(hit),
        sigma.membership_residual(hit),
    )
    # uniqueness: rebuilding from the hit point recovers the same circle
    sigma2 = rcircle_through_hitting(F, hit, u)
    return max(worst, circle_pointset_residual(sigma, sigma2))


def _orthogonal_config(cfg, rng):
    """The draws of a map g and a unit direction; g carries the vertical axis
    and the R-line of the direction to an orthogonal chain and R-circle."""
    return moebius_params(cfg, rng), _unit_direction(rng, cfg.k - 1)


def _oc_harmonicity(cfg, draws):
    k, n = cfg.k, len(draws)
    params, direction, s = zip(*draws)
    direction, s, zeros = np.array(direction), np.array(s)[:, None], np.zeros(n)
    u, v = Points.finite(s * direction, zeros), Points.finite(-s * direction, zeros)
    on_chain = [Points.finite(np.zeros((n, k - 1)), np.full(n, tau)) for tau in (-1.3, 0.4, 2.0)]
    go, gom, gu, gv, *gw = map_points(moebius_stack(k, params), _origins(k, n),
                                      Points.at_infinity(k, n), u, v, *on_chain)
    worst = harmonicity_residual_stack(go, gu, gom, gv)  # premise on the circle
    for w in (*gw, gom):
        worst = np.maximum(worst, harmonicity_residual_stack(w, gu, go, gv))
    return worst


@_law("axioms_o", "circles", 1e-8, 1000,
      "harmonic pairs on an orthogonal R-circle are harmonic against every chain point",
      min_k=2, batched=_oc_harmonicity)
def oc_harmonicity(cfg, rng):
    return (*_orthogonal_config(cfg, rng), math.exp(_uniform(rng, -1.0, 1.0)))


def _or_harmonicity(cfg, draws):
    k, n = cfg.k, len(draws)
    params, direction, tau = zip(*draws)
    direction, tau, zeros = np.array(direction), np.array(tau), np.zeros((n, k - 1))
    on_circle = [Points.finite(lam * direction, np.zeros(n)) for lam in (-2.0, -0.7, 0.5, 1.8)]
    gx, gy, go, gom, *gw = map_points(moebius_stack(k, params), Points.finite(zeros, tau),
                                      Points.finite(zeros, -tau), _origins(k, n),
                                      Points.at_infinity(k, n), *on_circle)
    worst = harmonicity_residual_stack(go, gx, gom, gy)
    for w in gw:
        worst = np.maximum(worst, harmonicity_residual_stack(w, gx, gom, gy))
    return worst


@_law("axioms_o", "circles", 1e-8, 1000,
      "harmonic pairs on a chain are harmonic against every point of an "
      "orthogonal R-circle", min_k=2, batched=_or_harmonicity)
def or_harmonicity(cfg, rng):
    return (*_orthogonal_config(cfg, rng), math.exp(_uniform(rng, -1.0, 1.0)))


def _count_low_clusters(values, threshold):
    low = [v < threshold for v in values]
    count = 0
    for i, flag in enumerate(low):
        if flag and (i == 0 or not low[i - 1]):
            count += 1
    if count >= 2 and low[0] and low[-1]:
        count -= 1  # circular wrap joins first and last run
    return count


def _chain_residuals_along_rcircle(F, sigma, ss):
    """Squared chain-membership residuals at R-circle parameters, batched."""
    k = sigma.k
    n = ss.shape[0]
    # affine lifts of the canonical line points (s e_1, 0), plus infinity
    L = np.zeros((k + 1, n + 1), dtype=complex)
    L[0, :n] = -0.5 * ss * ss
    L[1, :n] = ss
    L[k, :n] = 1.0
    L[0, n] = 1.0
    X = sigma.map.g @ L
    Q = F._plane_basis
    R = X - Q @ (Q.conj().T @ X)
    return (_norm_rows(R.T) / _norm_rows(X.T)) ** 2


@_law("circles", "circles", 0.5, 300,
      "a chain and an R-circle share at most two points", min_k=2)
def rc_intersection_bound(cfg, rng):
    sigma = sample_rcircle(cfg, rng)
    s1, s2 = _distinct_taus(rng, 2, sep=0.3)
    F = ccircle_through(sigma.point_at(float(s1)), sigma.point_at(float(s2)))
    ss = np.tan(np.linspace(-0.5 * math.pi, 0.5 * math.pi, 361)[1:-1])
    values = _chain_residuals_along_rcircle(F, sigma, ss)
    clusters = _count_low_clusters(list(values), OFF_CIRCLE_MARGIN)
    generic = sample_chain(cfg, rng)
    values_g = _chain_residuals_along_rcircle(generic, sigma, ss)
    clusters_g = _count_low_clusters(list(values_g), OFF_CIRCLE_MARGIN)
    return float(max(0, clusters - 2) + max(0, clusters_g - 2))


@_law("circles", "circles", 1e-8, 200,
      "the conjugate pole closes harmonic co-circular 4-tuples over the whole chain",
      min_k=2)
def conjugate_pole_cocircular(cfg, rng):
    F = sample_chain(cfg, rng)
    u = _point_off_chain(cfg, rng, F)
    v = conjugate_pole(F, u)
    worst = 0.0
    for tau in _distinct_taus(rng, 10, lo=-3.0, hi=3.0):
        x = F.point_at(float(tau))
        y = eta(F, u, x)
        worst = max(worst, harmonicity_residual(x, u, y, v))
        sigma = rcircle_through_hitting(F, x, u)
        worst = max(worst, sigma.membership_residual(v))
        worst = max(worst, chordal_sq(y, eta(F, v, x)))  # eta_u = eta_v
    return worst


@_law("circles", "circles", 1e-9, 1000,
      "cross-ratios against the two poles swap under the chain involution", min_k=2)
def moebius_involution_crt_identity(cfg, rng):
    F = sample_chain(cfg, rng)
    u = _point_off_chain(cfg, rng, F)
    v = conjugate_pole(F, u)
    t1, t2 = _distinct_taus(rng, 2)
    x, z = F.point_at(float(t1)), F.point_at(float(t2))
    lhs = crt(x, u, z, v)
    rhs = crt(eta(F, u, x), v, eta(F, u, z), u)
    return lhs.max_difference(rhs)


@_law("circles", "circles", 1e-8, 500,
      "the induced chain involution squares to the identity", min_k=2)
def eta_involution(cfg, rng):
    F = sample_chain(cfg, rng)
    u = _point_off_chain(cfg, rng, F)
    worst = 0.0
    for tau in _distinct_taus(rng, 4):
        w = F.point_at(float(tau))
        worst = max(worst, chordal_sq(eta(F, u, eta(F, u, w)), w))
    return worst


@_law("circles", "circles", 1e-9, 500,
      "the induced chain involution preserves cross-ratio triples", min_k=2)
def eta_preserves_crt(cfg, rng):
    F = sample_chain(cfg, rng)
    u = _point_off_chain(cfg, rng, F)
    taus = _distinct_taus(rng, 4)
    pts = [F.point_at(float(t)) for t in taus]
    images = [eta(F, u, p) for p in pts]
    return crt(*pts).max_difference(crt(*images))


@_law("circles", "circles", 1e-8, 500,
      "a sphere between two points is the bisector once one of its points is remote")
def sphere_bisector_form(cfg, rng):
    u, v, x = sample_distinct_points(cfg, rng, 3)
    S = sphere_between(u, v, x)
    pts = S.sample_points(4, rng)
    worst = max(S.membership_residual(p) for p in pts)
    worst = max(worst, S.membership_residual(x))
    w, p = pts[0], pts[1]
    du, dv = dist_w(w, p, u), dist_w(w, p, v)
    return max(worst, _rel(du - dv, max(du, dv)))


@_law("circles", "circles", 1e-8, 400,
      "every sphere point lies on an R-circle through the chain intercepts", min_k=2)
def filling_sphere_rcircles(cfg, rng):
    omega, omega_p = sample_distinct_points(cfg, rng, 2)
    F = ccircle_through(omega, omega_p)
    c = chart(omega_p, omega)  # F is the vertical axis in it
    cinv = c.inverse()
    r2 = math.exp(_uniform(rng, -0.5, 0.5))
    x = cinv(point(np.zeros(cfg.k - 1), r2))
    x_opp = cinv(point(np.zeros(cfg.k - 1), -r2))
    S = sphere_between(omega, omega_p, x)
    worst = S.membership_residual(x_opp)
    for u in S.sample_points(2, rng):
        if F.membership_residual(u) < 1e-3:
            continue
        worst = max(worst, chordal_sq(eta(F, u, x), x_opp))
        sigma = rcircle_through_hitting(F, x, u)
        worst = max(worst, sigma.membership_residual(x_opp))
    return worst


@_law("circles", "circles", 1e-8, 400,
      "Ptolemy equality with three points on an R-circle forces the fourth onto it",
      min_k=2)
def property_u_fourth_point(cfg, rng):
    sigma = sample_rcircle(cfg, rng)
    ss = _distinct_taus(rng, 4, sep=0.2)
    x, y, z, u = (sigma.point_at(float(s)) for s in ss)
    scale = max(dist(x, z) * dist(y, u), 1e-12)
    worst = _rel(ptolemy_defect(x, y, z, u), scale)
    worst = max(worst, sigma.membership_residual(u))
    # the equality forces membership: a perturbed point may only satisfy
    # it (within margin) if the perturbation happened to return to sigma
    if not u.infinite:
        u_off = point(u.z, u.t + _uniform(rng, 0.5, 1.5))
        defect_off = _rel(ptolemy_defect(x, y, z, u_off), scale)
        member_off = sigma.membership_residual(u_off)
        if defect_off < OFF_CIRCLE_MARGIN and member_off > 100 * OFF_CIRCLE_MARGIN:
            worst = max(worst, 1.0)
    return worst


@_law("foliation", "foliation", 1e-10, 1000,
      "the base projection is 1-Lipschitz and isometric on R-lines", min_k=2)
def base_projection_isometric(cfg, rng):
    omega = infinity(cfg.k)
    # an R-line through infinity: no inversion in the transport
    sigma = canonical_rcircle(cfg.k).transported(random_moebius(cfg, rng, allow_inversion=False))
    s1, s2 = _distinct_taus(rng, 2)
    p1, p2 = sigma.point_at(float(s1)), sigma.point_at(float(s2))
    b1, b2 = fo.project_base(omega, p1), fo.project_base(omega, p2)
    d_amb = dist(p1, p2)
    worst = _rel(np.linalg.norm(b1 - b2) - d_amb, d_amb)
    # fiber constancy and 1-Lipschitz on generic pairs
    F = ccircle_through(omega, sample_point(cfg, rng))
    q1, q2 = F.point_at(0.3), F.point_at(-1.1)
    worst = max(
        worst,
        float(np.linalg.norm(fo.project_base(omega, q1) - fo.project_base(omega, q2))),
    )
    x, y = sample_distinct_points(cfg, rng, 2)
    bx, by = fo.project_base(omega, x), fo.project_base(omega, y)
    worst = max(worst, _rel(max(0.0, np.linalg.norm(bx - by) - dist(x, y)), dist(x, y)))
    return worst


def _fiber_through(omega, z):
    return ccircle_through(omega, point(z, 0.0))


@_law("foliation", "foliation", 1e-10, 500,
      "fiber distance is independent of the sample point and matches the chart",
      min_k=2)
def base_dist_welldefined(cfg, rng):
    omega = infinity(cfg.k)
    m = cfg.k - 1
    z1 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    z2 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if np.linalg.norm(z1 - z2) < 1e-2:
        return 0.0
    F, Fp = _fiber_through(omega, z1), _fiber_through(omega, z2)
    ref = float(np.linalg.norm(z1 - z2))
    worst = _rel(fo.base_dist(omega, F, Fp) - ref, ref)
    values = []
    for tau in _distinct_taus(rng, 6, lo=-3, hi=3):
        xp = Fp.point_at(float(tau))
        values.append(dist_w(omega, xp, mu(F, omega, xp)))
    values = np.array(values)
    worst = max(worst, _rel(float(np.max(values) - np.min(values)), ref))
    # the projection between fibers is isometric
    xp, yp = Fp.point_at(0.7), Fp.point_at(-0.9)
    d_im = dist(mu(F, omega, xp), mu(F, omega, yp))
    worst = max(worst, _rel(d_im - dist(xp, yp), dist(xp, yp)))
    return worst


@_law("foliation", "foliation", 1e-10, 1000,
      "base distances satisfy the parallelogram law", min_k=2)
def base_parallelogram_law(cfg, rng):
    omega = infinity(cfg.k)
    m = cfg.k - 1
    zs = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(3)]
    z4 = zs[0] + zs[2] - zs[1]
    fibers = [_fiber_through(omega, z) for z in (*zs, z4)]
    d = lambda i, j: fo.base_dist(omega, fibers[i], fibers[j])
    sides = 2 * d(0, 1) ** 2 + 2 * d(1, 2) ** 2
    diags = d(0, 2) ** 2 + d(1, 3) ** 2
    return _rel(sides - diags, max(sides, diags))


@_law("foliation", "foliation", 1e-10, 300,
      "base geodesics are unique: off-segment detours are strictly longer", min_k=2)
def base_midpoint_uniqueness(cfg, rng):
    omega = infinity(cfg.k)
    m = cfg.k - 1
    za = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    zb = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if np.linalg.norm(za - zb) < 1e-2:
        return 0.0
    A, B = _fiber_through(omega, za), _fiber_through(omega, zb)
    M = _fiber_through(omega, 0.5 * (za + zb))
    dAB = fo.base_dist(omega, A, B)
    on_excess = fo.base_dist(omega, A, M) + fo.base_dist(omega, M, B) - dAB
    worst = _rel(on_excess, dAB)
    off = _unit_direction(rng, m) * _uniform(rng, 0.3, 1.0)
    P = _fiber_through(omega, 0.5 * (za + zb) + off)
    off_excess = fo.base_dist(omega, A, P) + fo.base_dist(omega, P, B) - dAB
    if off_excess <= 0.0:
        worst = max(worst, 1.0)
    return worst


@_law("foliation", "foliation", 1e-6, 300,
      "Busemann functions are affine on R-lines and constant on fibers", min_k=2)
def busemann_affine_fibers(cfg, rng):
    omega = infinity(cfg.k)
    sigma = canonical_rcircle(cfg.k).transported(random_moebius(cfg, rng, allow_inversion=False))
    o = sigma.point_at(float(_uniform(rng, -1, 1)))
    line = canonical_rcircle(cfg.k).transported(random_moebius(cfg, rng, allow_inversion=False))
    s0, h = _uniform(rng, -1, 1), _uniform(rng, 0.4, 1.2)
    pts = [line.point_at(float(s0 + j * h)) for j in (-1, 0, 1)]
    closed = [fo.busemann(omega, sigma, o, p) for p in pts]
    # the defining limit of d(p, sigma(s)) - d(o, sigma(s)) as sigma(s) runs
    # to omega: a doubling pair of far points and one Richardson step
    far = [sigma.point_at(s) for s in (2.0 ** 19, 2.0 ** 20)]
    v = [[dist(p, f) - dist(o, f) for f in far] for p in pts]
    limits = [2 * v2 - v1 for v1, v2 in v]
    scale = max(1.0, max(abs(b) for b in closed))
    worst = _rel(limits[0] + limits[2] - 2 * limits[1], scale)
    worst = max(worst, max(_rel(c - l, scale) for c, l in zip(closed, limits)))
    # constancy on fibers
    fib = ccircle_through(omega, pts[1])
    b1 = fo.busemann(omega, sigma, o, fib.point_at(0.9))
    b2 = fo.busemann(omega, sigma, o, fib.point_at(-1.7))
    return max(worst, _rel(b1 - b2, scale))


def _vertical_shift_isometry(cfg, draws):
    s, Z, T, s2 = (np.array(a) for a in zip(*draws))
    x, y = (Points.finite(Z[:, j], T[:, j]) for j in (0, 1))
    zeros = np.zeros((len(draws), cfg.k - 1), dtype=complex)
    gamma = translation_stack(zeros, s)   # vertical_shift(infinity, s)
    gx, gy = map_points(gamma, x, y)
    dxy, root = dist_stack(x, y), np.sqrt(np.abs(s))
    worst = _rel_stack(dist_stack(gx, gy) - dxy, dxy)
    worst = np.maximum(worst, _rel_stack(dist_stack(x, gx) - root, root))
    (cx,) = map_points(translation_stack(zeros, s2) @ gamma, x)
    disp_sq = _pow(dist_stack(x, cx), 2)
    total = np.abs(s) + np.abs(s2)
    return np.maximum(worst, _rel_stack(disp_sq - total, total))


@_law("foliation", "foliation", 1e-12, 1000,
      "vertical shifts are isometries with displacement sqrt(|s|)",
      batched=_vertical_shift_isometry)
def vertical_shift_isometry(cfg, rng):
    s = _uniform(rng, 0.5, 4.0) * (1 if _uniform(rng) < 0.5 else -1)
    Z, T = _distinct_point_batch(cfg, rng, 2)
    return s, Z, T, _uniform(rng, 0.5, 4.0) * math.copysign(1.0, s)


@_law("foliation", "foliation", 1e-8, 500,
      "pure homotheties scale the inverted metric and preserve lines through "
      "the center")
def pure_homothety_scaling(cfg, rng):
    o, w = sample_distinct_points(cfg, rng, 2)
    lam = math.exp(_uniform(rng, -1.0, 1.0))
    h = fo.pure_homothety(o, w, lam)
    x, y = sample_distinct_points(cfg, rng, 2)
    ref = dist_w(w, x, y)
    worst = _rel(dist_w(w, h(x), h(y)) - lam * ref, lam * ref)
    worst = max(worst, chordal_sq(h(o), o), chordal_sq(h(w), w))
    if cfg.k >= 2:
        F = ccircle_through(o, w)
        u = _point_off_chain(cfg, rng, F)
        # lines through o are preserved; build the one through the shifted u
        sigma_o = rcircle_through_hitting(F, w, _shift_to_hit(w, o, u))
        for s in (-1.2, 0.8):
            worst = max(worst, sigma_o.membership_residual(h(sigma_o.point_at(s))))
    return worst


def _shift_to_hit(omega, o, u):
    """Move u along its fiber through omega so that the R-line through it
    and omega hits the chain through omega and o at o."""
    c = chart(omega, o)
    u1 = c(u)
    return c.inverse()(point(u1.z, 0.0))


def _random_polygon(cfg, rng, n):
    m = max(cfg.k - 1, 1)
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _lift_additivity(cfg, draws):
    V = np.array(draws)
    total = fo.tau_stack(V, 0.0)[0]
    # split along the segment from vertex 0 to vertex 2
    split = fo.tau_stack(V[:, :3], 0.0)[0] + fo.tau_stack(V[:, [2, 3, 4, 0]], 0.0)[0]
    return _rel_stack(total - split, np.maximum(1.0, np.abs(total)))


@_law("foliation", "foliation", 1e-12, 1000,
      "the polygon lift shift is additive under splitting along a segment", min_k=2,
      batched=_lift_additivity)
def lift_additivity(cfg, rng):
    return _random_polygon(cfg, rng, 5)


def _lift_homothety_scaling(cfg, draws):
    V, lam = (np.array(a) for a in zip(*draws))
    d1 = fo.tau_stack(V, 0.0)[1]
    d2 = fo.tau_stack(lam[:, None, None] * V, 0.0)[1]
    return _rel_stack(d2 - lam * d1, np.maximum(1.0, lam * d1))


@_law("foliation", "foliation", 1e-12, 1000,
      "scaling a polygon scales the lift displacement linearly", min_k=2,
      batched=_lift_homothety_scaling)
def lift_homothety_scaling(cfg, rng):
    return _random_polygon(cfg, rng, 4), math.exp(_uniform(rng, -1.0, 1.0))


def _lift_triangle_area_ratio(cfg, draws):
    pts, ratio = (np.array(a) for a in zip(*draws))
    v, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    x = v + ratio[:, None] * (z - v)
    moved = fo.tau_stack(np.stack([x, y, z], axis=1), 0.0)[1]
    original = fo.tau_stack(pts, 0.0)[1]
    lhs = _pow(moved, 2) * _norm_rows(z - v)
    rhs = _norm_rows(z - x) * _pow(original, 2)
    return _rel_stack(lhs - rhs, np.maximum(np.maximum(lhs, rhs), 1e-6))


@_law("foliation", "foliation", 1e-10, 500,
      "moving a triangle vertex along a side scales the squared displacement by "
      "the ratio", min_k=2, batched=_lift_triangle_area_ratio)
def lift_triangle_area_ratio(cfg, rng):
    m = cfg.k - 1
    pts = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
    return pts, _uniform(rng, 0.05, 0.95) if _uniform(rng) < 0.5 else 1.0 / math.pi


def _lift_diagonal_split(cfg, draws):
    p, a, b = np.moveaxis(np.array(draws), 1, 0)
    d1 = fo.tau_stack(np.stack([p, p + a, p + a + b], axis=1), 0.0)[0]
    d2 = fo.tau_stack(np.stack([p, p + a + b, p + b], axis=1), 0.0)[0]
    return _rel_stack(d1 - d2, np.maximum(1.0, np.abs(d1)))


@_law("foliation", "foliation", 1e-12, 1000,
      "the two triangles of a parallelogram diagonal have equal lift shifts", min_k=2,
      batched=_lift_diagonal_split)
def lift_diagonal_split(cfg, rng):
    m = cfg.k - 1
    return [rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(3)]


def _lift_square_displacement(cfg, draws):
    t0, lam = (np.array(a) for a in zip(*draws))
    square = np.zeros((4, cfg.k - 1), dtype=complex)
    square[1, 0], square[2, 0], square[3, 0] = 1.0, 1.0 + 1j, 1j
    P = fo.Polygon(vertices=square)
    exact = max(_rel(fo.tau(P, 0.0)[0] + 4.0, 4.0), _rel(fo.signed_area(P) - 1.0, 1.0))
    disp = fo.tau_stack(np.broadcast_to(square, (len(draws), *square.shape)), t0)[1]
    scaled = fo.tau_stack(lam[:, None, None] * square, 0.0)[0]
    worst = np.maximum(exact, _rel_stack(disp - 2.0, 2.0))
    return np.maximum(worst, _rel_stack(scaled + 4.0 * lam * lam, 4.0 * lam * lam))


@_law("foliation", "foliation", 1e-12, 200,
      "the unit square lifts to the vertical shift by -4, displacement 2", min_k=2,
      batched=_lift_square_displacement)
def lift_square_displacement(cfg, rng):
    return _uniform(rng, -2, 2), math.exp(_uniform(rng, -0.5, 0.5))


@_law("holonomy", "tangent", 1e-12, 1,
      "the adapted-frame curvature values match their exact constants", min_k=2)
def curvature_golden_values(cfg, rng):
    x, y, z, u, v = tg.adapted_frame(cfg.k)
    checks = [
        (tg.riem(x, y, z, u), 2.0),
        (tg.sec_k(x, z), -1.0),
        (tg.sec_k(x, y), -4.0),
        (tg.sec_k(y + u, x + z), -16.0),
        (tg.sec_k(x + u, y + z), -4.0),
        (tg.riem_polarized(x, y, z, u), 12.0),
    ]
    if v is not None:
        checks += [
            (tg.riem(x, y, z, v), 0.0),
            (tg.sec_k(x + v, y + z), -7.0),
            (tg.sec_k(y + v, x + z), -7.0),
            (tg.sectional((x + v) / math.sqrt(2), (y + z) / math.sqrt(2)), -1.75),
            (tg.euler_interp(-4.0, -1.0, math.pi / 3.0), -1.75),
            (tg.riem_polarized(x, y, z, v), 0.0),
        ]
    return max(abs(got - want) for got, want in checks)


def _draw_tangents(cfg, rng, m):
    # m random tangent vectors: the real and then the imaginary parts of
    # each vector in turn, in one call on the trial's generator
    return rng.standard_normal(2 * m * cfg.k)


def _tangents(cfg, draws):
    """The drawn tangent vectors as m stacks of shape (trials, k)."""
    return tg._complex_draws(np.reshape(draws, (len(draws), -1, 2, cfg.k)))


def _curvature_symmetries(cfg, draws):
    x, y, z, w = _tangents(cfg, draws)
    r = tg.riem
    rxyzw = r(x, y, z, w)
    scale = np.maximum(1.0, abs(rxyzw))   # >= 1: no floor needed, unlike _rel
    worst = abs(rxyzw + r(y, x, z, w)) / scale
    worst = np.maximum(worst, abs(rxyzw + r(x, y, w, z)) / scale)
    worst = np.maximum(worst, abs(rxyzw - r(z, w, x, y)) / scale)
    bianchi = rxyzw + r(y, z, x, w) + r(z, x, y, w)
    return np.maximum(worst, abs(bianchi) / scale)


@_law("holonomy", "tangent", 1e-12, 2000,
      "the curvature tensor has all its symmetries and satisfies the Bianchi sum",
      batched=_curvature_symmetries)
def curvature_symmetries(cfg, rng):
    return _draw_tangents(cfg, rng, 4)


def _polarization_identity(cfg, draws):
    x, y, z, w = _tangents(cfg, draws)
    lhs = tg.riem_polarized(x, y, z, w)
    rhs = 6.0 * tg.riem(x, y, z, w)
    return abs(lhs - rhs) / np.maximum(np.maximum(1.0, abs(lhs)), abs(rhs))


@_law("holonomy", "tangent", 1e-10, 1000,
      "the 14-term polarization equals six times the tensor",
      batched=_polarization_identity)
def polarization_identity(cfg, rng):
    return _draw_tangents(cfg, rng, 4)


def _curvature_operator_spectrum(cfg, draws):
    (u,) = _tangents(cfg, draws)
    evals = tg.curvature_operator_spectrum(u)
    target = np.concatenate([[-4.0], -np.ones(2 * cfg.k - 2), [0.0]])
    return np.max(np.abs(evals - target), axis=-1)


@_law("holonomy", "tangent", 1e-10, 300,
      "the curvature operator has eigenvalues -4 (once) and -1 (2k-2 times)",
      batched=_curvature_operator_spectrum)
def curvature_operator_spectrum(cfg, rng):
    return _draw_tangents(cfg, rng, 1)


def _holonomy_identity(cfg, draws):
    x, y, z, u, _ = tg._frames(_tangents(cfg, draws))
    return _norm_rows(tg.riem_vec(x, y, z) - 2.0 * u)


@_law("holonomy", "tangent", 1e-12, 1000,
      "R(x, Jx) z = 2 Jz for z in the complex orthogonal complement", min_k=2,
      batched=_holonomy_identity)
def holonomy_identity(cfg, rng):
    # the draws of x and z of a random adapted frame; v is not needed
    return _draw_tangents(cfg, rng, 2)


def _sectional_bounds(cfg, draws):
    u, v = _tangents(cfg, draws)
    K = tg.sectional(u, v)
    # the excess over [-4, -1] times sin^2 of the angle of u and v, as K's
    # rounding error grows like eps / sin^2
    uu_vv = tg.inner(u, u) * tg.inner(v, v)
    uv = tg.inner(u, v)
    return np.maximum(np.maximum(0.0, -4.0 - K), K + 1.0) * ((uu_vv - uv * uv) / uu_vv)


@_law("holonomy", "tangent", 1e-10, 2000,
      "sectional curvatures stay pinched between -4 and -1", batched=_sectional_bounds)
def sectional_bounds(cfg, rng):
    return _draw_tangents(cfg, rng, 2)


def _rotation_order_residual(q: int) -> float:
    # rational-angle rotation pairs have finite order
    f1 = np.array([1.0, 0.0], dtype=complex)
    f2 = np.array([0.0, 1.0], dtype=complex)
    rot = tg.word_matrix(tg.rotation_reflections(2.0 * math.pi / q, f1, f2))
    power = np.linalg.matrix_power(rot, q)
    return float(np.max(np.abs(power - np.eye(2, dtype=complex))))


# one residual per drawn order q, built at import: every run makes the same calls
_ROTATION_RESIDUALS = {q: _rotation_order_residual(q) for q in range(2, 8)}


def _unitary_reflection_transitivity(cfg, draws):
    g, qs = zip(*draws)
    w = tg._complex_draws(np.reshape(g, (len(g), 2, 2, 2)))
    u, v = w / tg._col(_norm_rows(w))
    I = np.eye(2, dtype=complex)
    # a word is empty (u = v) or has four letters; an empty word acts as I
    full = ~(_norm_rows(u - v) <= 1e-12)
    M = np.tile(I, (len(g), 1, 1))
    worst = np.zeros(len(g))
    if full.any():
        lines = tg._word_lines(u[full], v[full])
        R = tg._reflection_matrix(lines)  # (trials, 4, 2, 2)
        M[full] = tg.word_matrix(lines)
        svals = np.linalg.svd(I - R, compute_uv=False)
        letters = np.max([
            np.max(np.abs(R @ R - I), axis=(-2, -1)),
            _modulus(np.linalg.det(R) + 1.0),
            abs(svals[..., 0] - 2.0),
            svals[..., 1],
        ], axis=(0, 2))
        worst[full] = np.maximum(letters, _modulus(np.linalg.det(R[:, 1] @ R[:, 0]) - 1.0))
    moved = (M @ u[..., None])[..., 0] - v
    worst = np.maximum(worst, _norm_rows(moved))
    return np.maximum(worst, [_ROTATION_RESIDUALS[q] for q in qs])


@_law("holonomy", "tangent", 1e-10, 1000,
      "words of unitary reflections act transitively on the unit sphere",
      batched=_unitary_reflection_transitivity)
def unitary_reflection_transitivity(cfg, rng):
    # unit vectors u and v, drawn as real and imaginary parts, and a
    # rotation order q
    return rng.standard_normal(8), int(rng.integers(2, 8))


@_law("ortho", "ortho", 1e-8, 1000,
      "the three-point and two-sphere membership tests for the complement agree",
      min_k=2)
def ortho_membership_tests_agree(cfg, rng):
    A = sample_ortho_complement(cfg, rng)
    u_on = A.sample_points(1, rng)[0]
    r3, rs = ortho_membership_residuals(A, u_on)
    worst = max(r3, rs)
    for _ in range(40):
        u_off = sample_point(cfg, rng)
        if A.F.membership_residual(u_off) < 1e-3:
            continue
        r3o, rso = ortho_membership_residuals(A, u_off)
        if min(r3o, rso) > 1e-4 or max(r3o, rso) < OFF_CIRCLE_MARGIN:
            if (r3o < OFF_CIRCLE_MARGIN) != (rso < OFF_CIRCLE_MARGIN):
                worst = max(worst, 1.0)
            break
    return worst


@_law("ortho", "ortho", 1e-8, 500,
      "the complement contains the conjugate pole of each of its points", min_k=2)
def ortho_reflection_stability(cfg, rng):
    A = sample_ortho_complement(cfg, rng)
    u = A.sample_points(1, rng)[0]
    v = conjugate_pole(A.F, u)
    r3, rs = ortho_membership_residuals(A, v)
    return max(r3, rs)


@_law("ortho", "ortho", 1e-8, 300,
      "canonical fibers lie in the complement, are reflection-stable and disjoint",
      min_k=2)
def canonical_fiber_in_complement(cfg, rng):
    A = sample_ortho_complement(cfg, rng)
    u = A.sample_points(1, rng)[0]
    fib = canonical_fiber(A, u)
    worst = 0.0
    for tau in _distinct_taus(rng, 5):
        worst = max(worst, _three_point_residual(A, fib.point_at(float(tau))))
    phi = reflection_in_ccircle(A.F)
    for tau in (0.4, -1.3, math.inf):
        p = fib.point_at(tau)
        worst = max(worst, fib.membership_residual(phi(p)))
    if cfg.k >= 3:
        u2 = A.sample_points(1, rng)[0]
        if fib.membership_residual(u2) > 1e-3:
            fib2 = canonical_fiber(A, u2)
            gap = min(fib2.membership_residual(fib.point_at(t)) for t in (0.0, 1.0))
            if gap < OFF_CIRCLE_MARGIN:
                worst = max(worst, 1.0)
    return worst


@_law("ortho", "ortho", 1e-8, 500,
      "mutual orthogonality is symmetric and the two reflections commute", min_k=2)
def orthogonality_symmetric_commuting(cfg, rng):
    F, Fp = sample_orthopair(cfg, rng)
    if not (are_orthogonal(F, Fp) and are_orthogonal(Fp, F)):
        return 1.0
    phi, phip = reflection_in_ccircle(F), reflection_in_ccircle(Fp)
    worst = 0.0
    for _ in range(3):
        x = sample_point(cfg, rng)
        worst = max(worst, chordal_sq(phi(phip(x)), phip(phi(x))))
    return worst


@_law("ortho", "ortho", 1e-8, 500,
      "the fixed set of the composed reflections is the intersection of complements",
      min_k=2)
def fixset_equals_intersection(cfg, rng):
    g = random_moebius(cfg, rng)
    k = cfg.k
    e1 = np.zeros(k - 1, dtype=complex)
    e1[0] = 1.0
    F = canonical_chain(k).transported(g)
    Fp = ccircle_through(g(point(e1, 0.0)), g(point(-e1, 0.0)))
    A = OrthoComplement(F=F, eta=reflection_in_ccircle(Fp))
    Ap = OrthoComplement(F=Fp, eta=reflection_in_ccircle(F))
    worst = 0.0
    if k >= 3:
        e2 = np.zeros(k - 1, dtype=complex)
        e2[1] = 1.0
        u = g(point(e2, 0.0))
        worst = max(worst, fixset_psi_residual(F, Fp, u))
        worst = max(worst, _three_point_residual(A, u), _three_point_residual(Ap, u))
    u_off = sample_point(cfg, rng)
    if min(F.membership_residual(u_off), Fp.membership_residual(u_off)) > 1e-3:
        fixed = fixset_psi_residual(F, Fp, u_off) < OFF_CIRCLE_MARGIN
        both_in = max(_three_point_residual(A, u_off),
                      _three_point_residual(Ap, u_off)) < OFF_CIRCLE_MARGIN
        if fixed != both_in:
            worst = max(worst, 1.0)
    return worst


@_law("ortho", "ortho", 1e-8, 50,
      "some chain inside the complement is not a canonical fiber", min_k=3)
def nonfiber_chain_counterexample(cfg, rng):
    g = random_moebius(cfg, rng)
    k = cfg.k
    F = canonical_chain(k).transported(g)
    e1 = np.zeros(k - 1, dtype=complex)
    e2 = np.zeros(k - 1, dtype=complex)
    e1[0], e2[1] = 1.0, 1.0
    # the transported unit-sphere complement: conjugate the gauge inversion,
    # whose chain restriction swaps the transported origin and infinity
    A = OrthoComplement(F=F, eta=g @ make_inversion(k) @ g.inverse())
    C = ccircle_through(g(point(e1, 0.0)), g(point(e2, 0.0)))
    worst = 0.0
    for tau in (-1.0, 0.0, 1.0, math.inf):
        # the chain lies inside the complement
        worst = max(worst, _three_point_residual(A, C.point_at(tau)))
    # but it is not a fiber: conjugate poles of its points leave it
    for tau in (0.0, 1.0):
        p = C.point_at(tau)
        if C.membership_residual(conjugate_pole(F, p)) < OFF_CIRCLE_MARGIN:
            worst = max(worst, 1.0)
    return worst


@_law("ortho", "ortho", 1e-8, 300,
      "reflections across canonical fibers preserve the complement and its fibration",
      min_k=2)
def fiber_involution_preserves(cfg, rng):
    A = sample_ortho_complement(cfg, rng)
    u = A.sample_points(1, rng)[0]
    fib = canonical_fiber(A, u)
    phi_fib = reflection_in_ccircle(fib)
    worst = 0.0
    a = A.sample_points(1, rng)[0]
    image = phi_fib(a)
    worst = max(worst, _three_point_residual(A, image))
    if fib.membership_residual(a) > 1e-3:
        fa = canonical_fiber(A, a)
        fim = canonical_fiber(A, image)
        for tau in (0.0, 1.0, math.inf):
            worst = max(worst, fim.membership_residual(phi_fib(fa.point_at(tau))))
    return worst


@_law("join", "ortho", 1e-9, 1000,
      "the join decomposition puts the query point on the mid-sphere, |wu| = r",
      min_k=2)
def join_decompose_radius(cfg, rng):
    A = sample_ortho_complement(cfg, rng)
    F = A.F
    omega = F.point_at(float(_uniform(rng, -2, 2)))
    u = _point_off_chain(cfg, rng, F)
    dec = join_decompose(A, u, omega)
    if dec.b < 1e-6 or dec.a < 1e-3:
        return 0.0
    r_check = dist_w(omega, dec.w, u)
    worst = _rel(r_check - dec.r, dec.r)
    worst = max(worst, dec.sigma.membership_residual(u))
    worst = max(worst, dec.sigma.membership_residual(dec.y))
    worst = max(worst, chordal_sq(dec.y, A.eta(dec.x)))
    worst = max(worst, _rel(dist_w(omega, dec.w, dec.x) - dec.r, dec.r))
    worst = max(worst, _rel(dist_w(omega, dec.w, dec.y) - dec.r, dec.r))
    return worst


@_law("join", "ortho", 1e-12, 2000,
      "the closed-form intercepts solve the product and squared-difference equations")
def join_equations_algebra(cfg, rng):
    a = math.exp(_uniform(rng, -1.5, 1.5))
    b = math.exp(_uniform(rng, -1.5, 1.5))
    rho = math.exp(_uniform(rng, -1.0, 1.0))
    X, Y, cc = intercept_distances(a, b, rho)
    worst = _rel(X * Y - rho * rho, rho * rho)
    return max(worst, _rel(X * X - Y * Y - cc, max(1.0, abs(cc), X * X + Y * Y)))


@_law("join", "ortho", 1e-10, 1000,
      "the bracketing quartic root matches an independent polynomial solver")
def positive_root_independent(cfg, rng):
    b = math.exp(_uniform(rng, -1.0, 1.0))
    c = math.exp(_uniform(rng, -1.0, 1.0))
    d = c * b ** 4 * (1.0 + math.exp(_uniform(rng, -1.0, 2.0)))
    s0 = positive_root(b, c, d)
    coeffs = [1.0 + c, 4 * c * b, 6 * c * b * b, 4 * c * b ** 3, c * b ** 4 - d]
    roots = np.roots(coeffs)
    real_pos = [r.real for r in roots if abs(r.imag) < 1e-8 and r.real > 0]
    if len(real_pos) != 1:
        return 1.0
    resid = abs(s0 ** 4 + c * (s0 + b) ** 4 - d) / abs(d)
    return max(_rel(s0 - real_pos[0], max(s0, 1e-12)), resid)


@_law("join", "ortho", 1e-8, 500,
      "standard circles carry the harmonic 4-tuple of chain and subspace intercepts",
      min_k=2)
def standard_rcircle_harmonic(cfg, rng):
    A = sample_ortho_complement(cfg, rng)
    u = A.F.point_at(float(_uniform(rng, -2, 2)))
    x = A.sample_points(1, rng)[0]
    std = standard_rcircle(A, x, u)
    worst = harmonicity_residual(std.u, std.x, std.v, std.y)
    worst = max(worst, std.sigma.membership_residual(std.y))
    worst = max(worst, chordal_sq(std.v, A.eta(u)))
    return worst


@_law("join", "ortho", 1e-8, 200,
      "distinct standard circles meet only inside the chain and the subspace", min_k=2)
def standard_rcircles_intersection(cfg, rng):
    A = sample_ortho_complement(cfg, rng)
    F = A.F
    u = F.point_at(float(_uniform(rng, -2, 2)))
    x1 = A.sample_points(1, rng)[0]
    x2 = A.sample_points(1, rng)[0]
    if chordal_sq(x1, x2) < 1e-4 or chordal_sq(x1, conjugate_pole(F, x2)) < 1e-4:
        return 0.0
    s1 = standard_rcircle(A, x1, u)
    s2 = standard_rcircle(A, x2, u)
    worst = max(s2.sigma.membership_residual(s1.u), s2.sigma.membership_residual(s1.v))
    for s in (-1.7, -0.6, 0.5, 1.4):
        p = s1.sigma.point_at(s)
        if min(chordal_sq(p, s1.u), chordal_sq(p, s1.v)) < 1e-3:
            continue
        if s2.sigma.membership_residual(p) < OFF_CIRCLE_MARGIN:
            worst = max(worst, 1.0)
    return worst


@_law("join", "ortho", 1e-8, 300,
      "suspension fibers are R-lines through the poles at scaled constant distance",
      min_k=2)
def suspension_foliations(cfg, rng):
    g = random_moebius(cfg, rng)
    k = cfg.k
    e1 = np.zeros(k - 1, dtype=complex)
    e1[0] = 1.0
    K = canonical_chain(k).transported(g)
    u, v = g(infinity(k)), g(origin(k))
    lam = math.exp(_uniform(rng, -0.8, 0.8))
    rho = dist_w(u, v, g(point(e1, 0.0)))
    worst = 0.0
    for _ in range(4):
        theta = _uniform(rng, 0, 2 * math.pi)
        h = g(point(lam * np.exp(1j * theta) * e1, 0.0))
        # the R-line of the foliation through h passes the opposite pole
        worst = max(worst, chordal_sq(mu(K, u, h), v))
        worst = max(worst, _rel(dist_w(u, v, h) - lam * rho, lam * rho))
    return worst


def _generator_chart_actions(cfg, draws):
    k = cfg.k
    Z, T, z0, t0, U, lam = (np.array(a) for a in zip(*draws))
    p, q = (Points.finite(Z[:, j], T[:, j]) for j in (0, 1))
    (Tp,) = map_points(translation_stack(z0, t0), p)
    # the Heisenberg product z0 p
    zp = Points.finite(z0 + p.Z, t0 + p.T + 2.0 * -np.vecdot(z0, p.Z).imag)
    worst = chordal_sq_stack(Tp, zp)
    (Rp,) = map_points(rotation_stack(U), p)
    worst = np.maximum(worst, chordal_sq_stack(Rp, Points.finite((U @ p.Z[..., None])[..., 0],
                                                                 p.T)))
    Dp, Dq = map_points(dilation_stack(lam, k), p, q)
    scaled = Points.finite(lam[:, None] * p.Z, lam * lam * p.T)
    worst = np.maximum(worst, chordal_sq_stack(Dp, scaled))
    dpq = dist_stack(p, q)
    worst = np.maximum(worst, _rel_stack(dist_stack(Dp, Dq) - lam * dpq, lam * dpq))
    Ip, Iq = map_points(make_inversion(k).g, p, q)
    contract = dist_stack(Ip, Iq) * _gauge_stack(p) * _gauge_stack(q)
    return np.maximum(worst, _rel_stack(contract - dpq, dpq))


@_law("automorphisms", "projective", 1e-9, 1000,
      "translations, rotations, dilations and the inversion act by their chart "
      "formulas", batched=_generator_chart_actions)
def generator_chart_actions(cfg, rng):
    Z, T = _distinct_point_batch(cfg, rng, 2)
    z0 = sample_point(cfg, rng)
    U = random_unitary(cfg.k - 1, rng)
    return Z, T, z0.z, z0.t, U, math.exp(_uniform(rng, -1, 1))


@_law("automorphisms", "projective", 1e-10, 200,
      "compositions keep preserving the Hermitian form within drift bounds")
def form_preservation_drift(cfg, rng):
    g = random_moebius(cfg, rng)
    h = random_moebius(cfg, rng)
    single = (g @ h).form_residual()
    comp = g
    for _ in range(30):
        comp = comp @ random_moebius(cfg, rng)
    # single products must stay below 1e-10, long chains below 1e-8
    return max(single, comp.form_residual() / 100.0)


def _crt_moebius_invariance(cfg, draws):
    Z, T, params = zip(*draws)
    quad = _drawn_points(list(zip(Z, T)))
    images = map_points(moebius_stack(cfg.k, params), *quad)
    return _max_difference(crt_stack(*quad), crt_stack(*images))


@_law("automorphisms", "core", 1e-9, 2000,
      "cross-ratio triples are invariant under boundary automorphisms",
      batched=_crt_moebius_invariance)
def crt_moebius_invariance(cfg, rng):
    return (*_distinct_point_batch(cfg, rng, 4), moebius_params(cfg, rng))


def _crt_cross_model_agreement(cfg, draws):
    quad = _drawn_points(draws)
    chart_triples = crt_stack(*quad)   # raises, as crt_projective does, if inadmissible
    X = np.split(lift_stack(Points.concat(quad)), 4)
    pairings = [herm_stack(X[i], X[j]) for i, j in combinations(range(4), 2)]
    projective = triples_from_pairings([_modulus(w) for w in pairings])
    return _max_difference(chart_triples, projective)


@_law("automorphisms", "projective", 1e-9, 10000,
      "chart and projective cross-ratio triples agree", batched=_crt_cross_model_agreement)
def crt_cross_model_agreement(cfg, rng):
    return _distinct_point_batch(cfg, rng, 4)


@_law("automorphisms", "projective", 1e-8, 500,
      "automorphisms map chains to chains and R-circles to R-circles")
def conjugation_preserves_circles(cfg, rng):
    g = random_moebius(cfg, rng)
    F = sample_chain(cfg, rng)
    imgs = [g(p) for p in F.sample_points(5)]
    F2 = ccircle_through(imgs[0], imgs[1])
    worst = max(F2.membership_residual(p) for p in imgs[2:])
    if cfg.k >= 2:
        # the image circle is pinned by the rebuilt chain through two of its
        # points: the unique R-circle through them meeting that chain again
        # must carry all the other transported points
        sigma = sample_rcircle(cfg, rng)
        pts = [g(p) for p in sigma.sample_points(6)]
        aux = ccircle_through(pts[0], pts[1])
        if aux.membership_residual(pts[2]) > 1e-3:
            sigma2 = rcircle_through_hitting(aux, pts[0], pts[2])
            worst = max(worst, max(sigma2.membership_residual(p) for p in pts[3:]))
    return worst


@_law("automorphisms", "projective", 1e-8, 500,
      "chain reflections are involutions fixing the chain and its crossing R-circles")
def reflection_involution_fixedset(cfg, rng):
    F = sample_chain(cfg, rng)
    phi = reflection_in_ccircle(F)
    worst = 0.0
    for _ in range(3):
        x = sample_point(cfg, rng)
        worst = max(worst, chordal_sq(phi(phi(x)), x))
    for tau in (0.0, 1.4, math.inf):
        p = F.point_at(tau)
        worst = max(worst, chordal_sq(phi(p), p))
    if cfg.k >= 2:
        omega = F.point_at(0.6)
        u = _point_off_chain(cfg, rng, F)
        sigma = rcircle_through_hitting(F, omega, u)
        for s in (-1.1, 0.7, math.inf):
            worst = max(worst, sigma.membership_residual(phi(sigma.point_at(s))))
    return worst


def _lift_drop_roundtrip(cfg, draws):
    k = cfg.k
    Z, T, lam = (np.array(a) for a in zip(*draws))
    p = Points.finite(Z, T)
    X = lift_stack(p)
    H = herm_stack(X, X)
    worst = np.maximum(_modulus(H), chordal_sq_stack(drop_stack(X), p))
    worst = np.maximum(worst, chordal_sq_stack(drop_stack(lam[:, None] * X), p))
    fixed = max(chordal_sq(drop(lift(infinity(k))), infinity(k)),
                abs(distance_pairing_constant(k) - 2.0))
    return np.maximum(worst, fixed)


@_law("automorphisms", "projective", 1e-10, 2000,
      "null lifts are null, projectively stable, and invert back to the point",
      batched=_lift_drop_roundtrip)
def lift_drop_roundtrip(cfg, rng):
    p = sample_point(cfg, rng)
    return p.z, p.t, (rng.standard_normal() + 1j * rng.standard_normal()) or 1.0


SUITE_NAMES = list(dict.fromkeys(p.suite for p in REGISTRY))


def suite_properties(suite: str):
    if suite == "all":
        return list(REGISTRY)
    return [p for p in REGISTRY if p.suite == suite]
